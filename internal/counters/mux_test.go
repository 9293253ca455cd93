package counters

import (
	"testing"
)

func TestNewMultiplexerValidation(t *testing.T) {
	if _, err := NewMultiplexer(0, []Event{InstRetired}); err == nil {
		t.Error("zero physical counters accepted")
	}
	if _, err := NewMultiplexer(2, nil); err == nil {
		t.Error("empty event list accepted")
	}
	if _, err := NewMultiplexer(2, []Event{Cycles}); err == nil {
		t.Error("scheduling cycles accepted")
	}
	if _, err := NewMultiplexer(2, []Event{InstRetired, InstRetired}); err == nil {
		t.Error("duplicate event accepted")
	}
	if _, err := NewMultiplexer(2, []Event{Event(99)}); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestMultiplexerGrouping(t *testing.T) {
	m, err := NewMultiplexer(2, []Event{InstRetired, DCUMissOutstanding, InstDecoded, L2Requests, MemRequests})
	if err != nil {
		t.Fatal(err)
	}
	g := m.groups
	if len(g) != 3 {
		t.Fatalf("groups = %v", g)
	}
	if len(g[0]) != 2 || len(g[1]) != 2 || len(g[2]) != 1 {
		t.Errorf("group sizes wrong: %v", g)
	}
}

func makeSample(cycles uint64, rates map[Event]float64) Sample {
	var s Sample
	s.SetCount(Cycles, cycles)
	for e, r := range rates {
		s.SetCount(e, uint64(r*float64(cycles)))
	}
	return s
}

func TestObserveRotatesAndHoldsRates(t *testing.T) {
	m, err := NewMultiplexer(1, []Event{InstRetired, DCUMissOutstanding})
	if err != nil {
		t.Fatal(err)
	}
	truth := makeSample(1000, map[Event]float64{InstRetired: 0.8, DCUMissOutstanding: 0.4})

	// Interval 1: group {InstRetired}; DCU never observed -> zero.
	s1 := m.Observe(truth)
	if s1.Count(InstRetired) != 800 {
		t.Errorf("interval 1 retired = %d", s1.Count(InstRetired))
	}
	if s1.Count(DCUMissOutstanding) != 0 {
		t.Errorf("interval 1 dcu = %d, want 0 (never observed)", s1.Count(DCUMissOutstanding))
	}
	// Interval 2: group {DCU}; retired synthesized from last rate.
	truth2 := makeSample(2000, map[Event]float64{InstRetired: 0.5, DCUMissOutstanding: 0.4})
	s2 := m.Observe(truth2)
	if s2.Count(DCUMissOutstanding) != 800 {
		t.Errorf("interval 2 dcu = %d, want 800 (true)", s2.Count(DCUMissOutstanding))
	}
	if s2.Count(InstRetired) != 1600 { // 0.8 held rate * 2000 cycles
		t.Errorf("interval 2 retired = %d, want 1600 (held rate)", s2.Count(InstRetired))
	}
	if m.cur != 0 {
		t.Errorf("after two intervals over two groups, group = %d, want 0", m.cur)
	}
}

func TestObserveCyclesAlwaysTrue(t *testing.T) {
	m, _ := NewMultiplexer(1, []Event{InstRetired, DCUMissOutstanding})
	truth := makeSample(12345, map[Event]float64{InstRetired: 1})
	if got := m.Observe(truth).Count(Cycles); got != 12345 {
		t.Errorf("cycles = %d", got)
	}
}

func TestObserveAllEventsFitNoLoss(t *testing.T) {
	// With enough physical counters the mux is transparent.
	m, _ := NewMultiplexer(2, []Event{InstRetired, DCUMissOutstanding})
	truth := makeSample(1000, map[Event]float64{InstRetired: 0.7, DCUMissOutstanding: 0.2})
	got := m.Observe(truth)
	if got.Count(InstRetired) != truth.Count(InstRetired) ||
		got.Count(DCUMissOutstanding) != truth.Count(DCUMissOutstanding) {
		t.Errorf("transparent mux altered counts: %+v", got)
	}
}
