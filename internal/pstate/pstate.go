// Package pstate models ACPI-style processor performance states
// (p-states) for the simulated Pentium M 755 platform.
//
// A p-state is a voltage/frequency operating point. The table of
// available p-states mirrors Table II of the paper: eight states from
// 600 MHz / 0.998 V to 2000 MHz / 1.340 V. The package also names the
// (small) latency of a DVFS transition, matching the
// machine-specific-register + voltage-regulator sequencing the paper's
// driver performs; the tick engine charges it per p-state change.
package pstate

import (
	"fmt"
	"sort"
	"time"

	"aapm/internal/paperref"
)

// PState describes one voltage/frequency operating point.
type PState struct {
	// FreqMHz is the core clock frequency in MHz.
	FreqMHz int
	// VoltageV is the supply voltage in volts.
	VoltageV float64
}

// String returns a compact human-readable form such as "1800MHz@1.292V".
func (p PState) String() string {
	return fmt.Sprintf("%dMHz@%.3fV", p.FreqMHz, p.VoltageV)
}

// FreqHz returns the frequency in Hz.
func (p PState) FreqHz() float64 { return float64(p.FreqMHz) * 1e6 }

// CyclesIn returns the number of core cycles elapsed in d at this p-state.
func (p PState) CyclesIn(d time.Duration) float64 {
	return p.FreqHz() * d.Seconds()
}

// Table is an ordered set of p-states, lowest frequency first.
type Table struct {
	states []PState
}

// PentiumM755 returns the p-state table of the paper's experimental
// platform (Table II voltage/frequency pairs, from package paperref).
func PentiumM755() *Table {
	states := make([]PState, 0, len(paperref.TableII))
	for _, r := range paperref.TableII {
		states = append(states, PState{FreqMHz: r.FreqMHz, VoltageV: r.VoltageV})
	}
	t, err := NewTable(states)
	if err != nil {
		panic("pstate: built-in table invalid: " + err.Error())
	}
	return t
}

// PentiumM738LV returns a synthetic low-voltage sibling platform: the
// same frequency ladder up to 1400 MHz at uniformly lower supply
// voltages. It exists to demonstrate the paper's §II point that
// counter-based power models are platform-specific: coefficients
// trained on the 755 misestimate this part until retrained.
func PentiumM738LV() *Table {
	t, err := NewTable([]PState{
		{600, 0.956},
		{800, 1.004},
		{1000, 1.052},
		{1200, 1.100},
		{1400, 1.148},
	})
	if err != nil {
		panic("pstate: built-in 738LV table invalid: " + err.Error())
	}
	return t
}

// NewTable validates and returns a p-state table. States must have
// strictly increasing frequency and non-decreasing voltage, mirroring
// physical DVFS tables where higher frequency requires at least as much
// supply voltage.
func NewTable(states []PState) (*Table, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("pstate: empty table")
	}
	s := make([]PState, len(states))
	copy(s, states)
	sort.Slice(s, func(i, j int) bool { return s[i].FreqMHz < s[j].FreqMHz })
	for i, p := range s {
		if p.FreqMHz <= 0 {
			return nil, fmt.Errorf("pstate: state %d has non-positive frequency %d", i, p.FreqMHz)
		}
		if p.VoltageV <= 0 {
			return nil, fmt.Errorf("pstate: state %d has non-positive voltage %g", i, p.VoltageV)
		}
		if i > 0 {
			if p.FreqMHz == s[i-1].FreqMHz {
				return nil, fmt.Errorf("pstate: duplicate frequency %d MHz", p.FreqMHz)
			}
			if p.VoltageV < s[i-1].VoltageV {
				return nil, fmt.Errorf("pstate: voltage decreases from %g to %g at %d MHz",
					s[i-1].VoltageV, p.VoltageV, p.FreqMHz)
			}
		}
	}
	return &Table{states: s}, nil
}

// Len returns the number of p-states.
func (t *Table) Len() int { return len(t.states) }

// At returns the i-th p-state, lowest frequency first.
func (t *Table) At(i int) PState { return t.states[i] }

// States returns a copy of all p-states, lowest frequency first.
func (t *Table) States() []PState {
	out := make([]PState, len(t.states))
	copy(out, t.states)
	return out
}

// CheckIndex reports whether i indexes a state of the table.
func (t *Table) CheckIndex(i int) error {
	if i < 0 || i >= len(t.states) {
		return fmt.Errorf("pstate: index %d out of range [0,%d)", i, len(t.states))
	}
	return nil
}

// Min returns the lowest-frequency p-state.
func (t *Table) Min() PState { return t.states[0] }

// Max returns the highest-frequency p-state.
func (t *Table) Max() PState { return t.states[len(t.states)-1] }

// IndexOf returns the index of the state with the given frequency, or
// -1 if the table has no such state.
func (t *Table) IndexOf(freqMHz int) int {
	for i, p := range t.states {
		if p.FreqMHz == freqMHz {
			return i
		}
	}
	return -1
}

// ByFreq returns the state with the given frequency.
func (t *Table) ByFreq(freqMHz int) (PState, error) {
	if i := t.IndexOf(freqMHz); i >= 0 {
		return t.states[i], nil
	}
	return PState{}, fmt.Errorf("pstate: no state with frequency %d MHz", freqMHz)
}

// HighestBelow returns the highest-frequency state whose frequency is
// at most freqMHz. It returns the minimum state if every state is above.
func (t *Table) HighestBelow(freqMHz int) PState {
	best := t.states[0]
	for _, p := range t.states {
		if p.FreqMHz <= freqMHz {
			best = p
		}
	}
	return best
}

// LowestAtOrAbove returns the lowest-frequency state whose frequency is
// at least freqMHz. It returns the maximum state if every state is below.
func (t *Table) LowestAtOrAbove(freqMHz int) PState {
	for _, p := range t.states {
		if p.FreqMHz >= freqMHz {
			return p
		}
	}
	return t.states[len(t.states)-1]
}

// DefaultTransitionLatency approximates an Enhanced SpeedStep
// transition (PLL relock + VID ramp): tens of microseconds, negligible
// against the 10 ms control interval, but not zero.
const DefaultTransitionLatency = 30 * time.Microsecond
