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
// counters in front of the inner governor. The wrapper is a
// machine.Throttler exactly when inner is one, so multiplexing a
// policy that does not throttle keeps its batch off the full event
// order.
func NewMultiplexed(inner machine.Governor, nphys int, events []counters.Event) (machine.Governor, error) {
	if inner == nil {
		return nil, fmt.Errorf("control: nil inner governor")
	}
	mux, err := counters.NewMultiplexer(nphys, events)
	if err != nil {
		return nil, err
	}
	m := &Multiplexed{inner: inner, mux: mux}
	if th, ok := inner.(machine.Throttler); ok {
		return &throttledMultiplexed{Multiplexed: m, th: th}, nil
	}
	return m, nil
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

// throttledMultiplexed is a Multiplexed over a throttling governor,
// whose clock-modulation duty it forwards.
type throttledMultiplexed struct {
	*Multiplexed
	th machine.Throttler
}

// Duty implements machine.Throttler with the inner governor's duty.
func (m *throttledMultiplexed) Duty() float64 { return m.th.Duty() }
