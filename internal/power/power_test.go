package power

import (
	"math"
	"testing"
	"testing/quick"

	"aapm/internal/counters"
	"aapm/internal/pstate"
)

func TestCoefficientsEvalClampsAtZero(t *testing.T) {
	c := Coefficients{AlphaDPC: 1, Base: 0.1, EpsGate: 100}
	if got := c.Eval(0, 0, 0, 1); got != 0 {
		t.Errorf("Eval = %g, want clamped 0", got)
	}
}

func TestGroundTruthMatchesTableIICore(t *testing.T) {
	g := PentiumM755Truth()
	tab := g.Table()
	// With no hidden activity, power is exactly alpha*DPC + beta from
	// the paper's Table II.
	cases := []struct {
		freq        int
		alpha, beta float64
	}{
		{600, 0.34, 2.58},
		{1200, 1.06, 5.60},
		{2000, 2.93, 12.11},
	}
	for _, c := range cases {
		i := tab.IndexOf(c.freq)
		if i < 0 {
			t.Fatalf("no state %d", c.freq)
		}
		got := g.PowerFromRates(i, 1.5, 0, 0, 0)
		want := c.alpha*1.5 + c.beta
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%d MHz: power(dpc=1.5) = %g, want %g", c.freq, got, want)
		}
	}
}

func TestGroundTruthHiddenTermsScaleWithState(t *testing.T) {
	g := PentiumM755Truth()
	lo := g.Coefficients(0)
	hi := g.Coefficients(g.Table().Len() - 1)
	if lo.GammaL2 >= hi.GammaL2 || lo.DeltaMem >= hi.DeltaMem || lo.EpsGate >= hi.EpsGate {
		t.Errorf("hidden terms do not grow with p-state: lo=%+v hi=%+v", lo, hi)
	}
	// At the reference (max) state they equal the reference magnitudes.
	if math.Abs(hi.GammaL2-6.0) > 1e-12 || math.Abs(hi.DeltaMem-10.0) > 1e-12 || math.Abs(hi.EpsGate-0.8) > 1e-12 {
		t.Errorf("reference hidden terms = %+v", hi)
	}
}

func TestGroundTruthPowerMonotoneInPState(t *testing.T) {
	g := PentiumM755Truth()
	prev := -1.0
	for i := 0; i < g.Table().Len(); i++ {
		p := g.PowerFromRates(i, 1.0, 0.05, 0.01, 0.2)
		if p <= prev {
			t.Errorf("power not increasing at index %d: %g <= %g", i, p, prev)
		}
		prev = p
	}
}

func TestPowerFromCounterSample(t *testing.T) {
	g := PentiumM755Truth()
	var s counters.Sample
	s.SetCount(counters.Cycles, 1000)
	s.SetCount(counters.InstDecoded, 1500)
	i := g.Table().Len() - 1
	got := g.Power(i, s)
	want := g.PowerFromRates(i, 1.5, 0, 0, 0)
	if got != want {
		t.Errorf("Power(sample) = %g, want %g", got, want)
	}
}

func TestNewGroundTruthRejectsUnknownFrequency(t *testing.T) {
	tab, err := pstate.NewTable([]pstate.PState{{FreqMHz: 700, VoltageV: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroundTruth(tab); err == nil {
		t.Error("NewGroundTruth accepted a frequency without reference coefficients")
	}
}

func TestEnergyAccumulation(t *testing.T) {
	var e Energy
	e.Add(10, 0.5)
	e.Add(20, 0.25)
	if got := e.Joules(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Joules = %g, want 10", got)
	}
	e.Add(5, -1) // ignored
	e.Add(math.NaN(), 1)
	if got := e.Joules(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Joules after invalid adds = %g, want 10", got)
	}
}

// Property: power increases with DPC at every p-state (alpha > 0).
func TestPowerMonotoneInDPC(t *testing.T) {
	g := PentiumM755Truth()
	f := func(idx8 uint8, d1, d2 float64) bool {
		i := int(idx8) % g.Table().Len()
		a, b := math.Abs(d1), math.Abs(d2)
		if math.IsNaN(a) || math.IsNaN(b) || a > 4 || b > 4 {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return g.PowerFromRates(i, a, 0, 0, 0) <= g.PowerFromRates(i, b, 0, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpolatedGroundTruth(t *testing.T) {
	// On Table II's own frequencies and voltages, interpolation must
	// reproduce the built-in truth exactly.
	own, err := NewInterpolatedGroundTruth(pstate.PentiumM755())
	if err != nil {
		t.Fatal(err)
	}
	ref := PentiumM755Truth()
	for i := 0; i < ref.Table().Len(); i++ {
		a, b := own.Coefficients(i), ref.Coefficients(i)
		if math.Abs(a.AlphaDPC-b.AlphaDPC) > 1e-12 || math.Abs(a.Base-b.Base) > 1e-12 {
			t.Errorf("state %d: interpolated %+v != reference %+v", i, a, b)
		}
	}
	// The low-voltage sibling draws less at every shared frequency.
	lv, err := NewInterpolatedGroundTruth(pstate.PentiumM738LV())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lv.Table().Len(); i++ {
		f := lv.Table().At(i).FreqMHz
		j := ref.Table().IndexOf(f)
		if lv.PowerFromRates(i, 1.5, 0, 0, 0) >= ref.PowerFromRates(j, 1.5, 0, 0, 0) {
			t.Errorf("%d MHz: low-voltage part not cheaper", f)
		}
	}
	// Frequencies outside the reference range are rejected.
	weird, err := pstate.NewTable([]pstate.PState{{FreqMHz: 2400, VoltageV: 1.4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterpolatedGroundTruth(weird); err == nil {
		t.Error("out-of-range frequency accepted")
	}
}
