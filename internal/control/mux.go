package control

import (
	"fmt"

	"aapm/internal/counters"
	"aapm/internal/machine"
	"aapm/internal/trace"
)

// Multiplexed wraps a governor so it observes counter samples through
// a rotating multiplexer instead of ideal full-width monitoring —
// what the policy would actually see on hardware with fewer physical
// counters than the events it consumes.
type Multiplexed struct {
	inner machine.Governor
	mux   *counters.Multiplexer
	info  machine.TickInfo // the inner governor's view of the interval
}

// NewMultiplexed schedules the listed events onto nphys physical
// counters in front of the inner governor.
func NewMultiplexed(inner machine.Governor, nphys int, events []counters.Event) (*Multiplexed, error) {
	if inner == nil {
		return nil, fmt.Errorf("control: nil inner governor")
	}
	mux, err := counters.NewMultiplexer(nphys, events)
	if err != nil {
		return nil, err
	}
	return &Multiplexed{inner: inner, mux: mux}, nil
}

// Name identifies the wrapped policy in traces.
func (m *Multiplexed) Name() string { return m.inner.Name() + "+mux" }

// Tick filters the sample through the multiplexer into its own copy
// of the record before delegating; the inner governor's degradations
// pass through.
func (m *Multiplexed) Tick(info *machine.TickInfo) (int, []trace.Degradation) {
	m.info = *info
	m.info.Sample = m.mux.Observe(info.Sample)
	return m.inner.Tick(&m.info)
}

// InitialIndex delegates if the inner governor pins a start state.
func (m *Multiplexed) InitialIndex(def int) int {
	if is, ok := m.inner.(machine.InitialStater); ok {
		return is.InitialIndex(def)
	}
	return def
}

// Duty delegates clock modulation if the inner governor throttles.
func (m *Multiplexed) Duty() float64 {
	if th, ok := m.inner.(machine.Throttler); ok {
		return th.Duty()
	}
	return 1
}
