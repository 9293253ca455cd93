package counters

import (
	"testing"
	"testing/quick"
)

func TestEventNames(t *testing.T) {
	want := map[Event]string{
		Cycles:             "cycles",
		InstDecoded:        "inst_decoded",
		InstRetired:        "inst_retired",
		DCUMissOutstanding: "dcu_miss_outstanding",
		L2Requests:         "l2_requests",
		MemRequests:        "mem_requests",
		ResourceStalls:     "resource_stalls",
	}
	for e, name := range want {
		if e.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), name)
		}
	}
	if got := Event(99).String(); got != "event(99)" {
		t.Errorf("out-of-range event name = %q", got)
	}
}

func TestSampleRates(t *testing.T) {
	var s Sample
	s.SetCount(Cycles, 2000)
	s.SetCount(InstDecoded, 3000)
	s.SetCount(InstRetired, 2500)
	s.SetCount(DCUMissOutstanding, 500)
	s.SetCount(L2Requests, 100)
	s.SetCount(MemRequests, 40)
	s.SetCount(ResourceStalls, 200)

	if got := s.DPC(); got != 1.5 {
		t.Errorf("DPC() = %g, want 1.5", got)
	}
	if got := s.IPC(); got != 1.25 {
		t.Errorf("IPC() = %g, want 1.25", got)
	}
	if got := s.DCU(); got != 0.25 {
		t.Errorf("DCU() = %g, want 0.25", got)
	}
	if got := s.L2PC(); got != 0.05 {
		t.Errorf("L2PC() = %g, want 0.05", got)
	}
	if got := s.MemPC(); got != 0.02 {
		t.Errorf("MemPC() = %g, want 0.02", got)
	}
	if got := s.StallPC(); got != 0.1 {
		t.Errorf("StallPC() = %g, want 0.1", got)
	}
	if got := s.DCUPerInst(); got != 0.2 {
		t.Errorf("DCUPerInst() = %g, want 0.2", got)
	}
	if got := s.Cycles(); got != 2000 {
		t.Errorf("Cycles() = %g, want 2000", got)
	}
}

func TestEmptySampleRatesAreZero(t *testing.T) {
	var s Sample
	if s.DPC() != 0 || s.IPC() != 0 || s.DCU() != 0 || s.DCUPerInst() != 0 {
		t.Errorf("zero sample produced nonzero rates: %+v", s)
	}
}

func TestSampleAccumulate(t *testing.T) {
	var a, b Sample
	a.SetCount(Cycles, 100)
	a.SetCount(InstRetired, 50)
	b.SetCount(Cycles, 200)
	b.SetCount(InstRetired, 250)
	a.Accumulate(b)
	if got := a.Count(Cycles); got != 300 {
		t.Errorf("accumulated cycles = %d, want 300", got)
	}
	if got := a.IPC(); got != 1.0 {
		t.Errorf("accumulated IPC = %g, want 1.0", got)
	}
}

// Property: DPC, IPC, DCU are finite and DCU <= 1 whenever the DCU
// count does not exceed cycles.
func TestRateBounds(t *testing.T) {
	f := func(cyc uint32, dcu uint32) bool {
		var s Sample
		c := uint64(cyc) + 1
		s.SetCount(Cycles, c)
		s.SetCount(DCUMissOutstanding, uint64(dcu)%c)
		return s.DCU() >= 0 && s.DCU() < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
