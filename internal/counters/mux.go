package counters

import "fmt"

// Multiplexer models the real platform's scarcity of physical
// counters: the Pentium M exposes two programmable counters for 92
// events (§III-B), so monitoring more than two logical events requires
// rotating event groups across intervals — the technique Isci et al.
// use to drive 24 events through 15 counters (§II).
//
// Each monitoring interval the multiplexer programs the next group.
// Observe returns the sample a driver would believe: actually-counted
// events carry their true interval counts; the others are synthesized
// from the rate recorded the last time their group was scheduled.
// Cycles are always available (timestamp counter) and never consume a
// programmable counter.
type Multiplexer struct {
	groups [][]Event
	cur    int
	// lastRate holds per-cycle rates from each event's last scheduled
	// interval; seen marks events observed at least once.
	lastRate [numEvents]float64
	seen     [numEvents]bool
}

// NewMultiplexer builds a rotation schedule packing the given events
// into groups of at most nphys, in order. Cycles is implicit and must
// not be listed.
func NewMultiplexer(nphys int, events []Event) (*Multiplexer, error) {
	if nphys < 1 {
		return nil, fmt.Errorf("counters: need at least one physical counter")
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("counters: no events to schedule")
	}
	seen := map[Event]bool{}
	var groups [][]Event
	var cur []Event
	for _, e := range events {
		if e == Cycles {
			return nil, fmt.Errorf("counters: cycles is free-running, do not schedule it")
		}
		if int(e) < 0 || int(e) >= NumEvents {
			return nil, fmt.Errorf("counters: unknown event %d", int(e))
		}
		if seen[e] {
			return nil, fmt.Errorf("counters: event %v listed twice", e)
		}
		seen[e] = true
		cur = append(cur, e)
		if len(cur) == nphys {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return &Multiplexer{groups: groups}, nil
}

// Observe consumes the interval's true sample (what ideal hardware
// would have counted) and returns the driver's view under
// multiplexing, then rotates to the next group.
func (m *Multiplexer) Observe(truth Sample) Sample {
	cycles := truth.Count(Cycles)
	var out Sample
	out.SetCount(Cycles, cycles)

	active := m.groups[m.cur]
	inGroup := map[Event]bool{}
	for _, e := range active {
		inGroup[e] = true
		out.SetCount(e, truth.Count(e))
		if cycles > 0 {
			m.lastRate[e] = float64(truth.Count(e)) / float64(cycles)
			m.seen[e] = true
		}
	}
	for _, g := range m.groups {
		for _, e := range g {
			if inGroup[e] || !m.seen[e] {
				continue
			}
			out.SetCount(e, uint64(m.lastRate[e]*float64(cycles)+0.5))
		}
	}
	m.cur = (m.cur + 1) % len(m.groups)
	return out
}
