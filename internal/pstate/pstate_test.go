package pstate

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPentiumM755Table(t *testing.T) {
	tab := PentiumM755()
	if got, want := tab.Len(), 8; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	if got := tab.Min(); got.FreqMHz != 600 || got.VoltageV != 0.998 {
		t.Errorf("Min() = %v, want 600MHz@0.998V", got)
	}
	if got := tab.Max(); got.FreqMHz != 2000 || got.VoltageV != 1.340 {
		t.Errorf("Max() = %v, want 2000MHz@1.340V", got)
	}
	// Paper Table II frequencies in order.
	want := []int{600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	for i, f := range want {
		if tab.At(i).FreqMHz != f {
			t.Errorf("At(%d).FreqMHz = %d, want %d", i, tab.At(i).FreqMHz, f)
		}
	}
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		name   string
		states []PState
	}{
		{"empty", nil},
		{"zero frequency", []PState{{0, 1.0}}},
		{"negative frequency", []PState{{-5, 1.0}}},
		{"zero voltage", []PState{{600, 0}}},
		{"duplicate frequency", []PState{{600, 1.0}, {600, 1.1}}},
		{"voltage decreases with frequency", []PState{{600, 1.2}, {800, 1.0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTable(tc.states); err == nil {
				t.Errorf("NewTable(%v) succeeded, want error", tc.states)
			}
		})
	}
}

func TestNewTableSortsInput(t *testing.T) {
	tab, err := NewTable([]PState{{2000, 1.34}, {600, 0.998}, {1400, 1.196}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.At(0).FreqMHz != 600 || tab.At(1).FreqMHz != 1400 || tab.At(2).FreqMHz != 2000 {
		t.Errorf("table not sorted: %v", tab.States())
	}
}

func TestTableLookups(t *testing.T) {
	tab := PentiumM755()
	if i := tab.IndexOf(1400); i != 4 {
		t.Errorf("IndexOf(1400) = %d, want 4", i)
	}
	if i := tab.IndexOf(700); i != -1 {
		t.Errorf("IndexOf(700) = %d, want -1", i)
	}
	if _, err := tab.ByFreq(999); err == nil {
		t.Error("ByFreq(999) succeeded, want error")
	}
	if p := tab.HighestBelow(1700); p.FreqMHz != 1600 {
		t.Errorf("HighestBelow(1700) = %v, want 1600", p)
	}
	if p := tab.HighestBelow(100); p.FreqMHz != 600 {
		t.Errorf("HighestBelow(100) = %v, want min 600", p)
	}
	if p := tab.LowestAtOrAbove(1601); p.FreqMHz != 1800 {
		t.Errorf("LowestAtOrAbove(1601) = %v, want 1800", p)
	}
	if p := tab.LowestAtOrAbove(99999); p.FreqMHz != 2000 {
		t.Errorf("LowestAtOrAbove(99999) = %v, want max 2000", p)
	}
}

func TestTableStatesIsACopy(t *testing.T) {
	tab := PentiumM755()
	s := tab.States()
	s[0].FreqMHz = 1
	if tab.At(0).FreqMHz == 1 {
		t.Error("mutating States() result changed the table")
	}
}

// Property: HighestBelow(f) always returns a state <= f when any state
// is <= f; and LowestAtOrAbove(f) >= f when any state is >= f.
func TestBracketingProperties(t *testing.T) {
	tab := PentiumM755()
	f := func(q uint16) bool {
		freq := int(q)%2500 + 1
		hb := tab.HighestBelow(freq)
		la := tab.LowestAtOrAbove(freq)
		if freq >= 600 && hb.FreqMHz > freq {
			return false
		}
		if freq <= 2000 && la.FreqMHz < freq {
			return false
		}
		// The two must bracket freq whenever it is inside the range.
		if freq >= 600 && freq <= 2000 && !(hb.FreqMHz <= freq && freq <= la.FreqMHz) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPStateDerivedValues(t *testing.T) {
	p := PState{FreqMHz: 2000, VoltageV: 1.34}
	if got := p.FreqHz(); got != 2e9 {
		t.Errorf("FreqHz() = %g, want 2e9", got)
	}
	if got := p.CyclesIn(10 * time.Millisecond); got != 2e7 {
		t.Errorf("CyclesIn(10ms) = %g, want 2e7", got)
	}
	if got, want := p.String(), "2000MHz@1.340V"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
