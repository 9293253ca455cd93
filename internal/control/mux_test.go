package control

import (
	"testing"

	"aapm/internal/counters"
	"aapm/internal/machine"
)

func TestNewMultiplexedValidation(t *testing.T) {
	if _, err := NewMultiplexed(nil, 2, []counters.Event{counters.InstRetired}); err == nil {
		t.Error("nil inner governor accepted")
	}
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	if _, err := NewMultiplexed(ps, 0, []counters.Event{counters.InstRetired}); err == nil {
		t.Error("zero counters accepted")
	}
}

func TestMultiplexedDelegates(t *testing.T) {
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	// Two physical counters fit PS's two events: behaviour identical
	// to the unwrapped policy.
	mux, err := NewMultiplexed(ps, 2, []counters.Event{counters.InstRetired, counters.DCUMissOutstanding})
	if err != nil {
		t.Fatal(err)
	}
	if mux.Name() != "PS(80%,e=0.81)+mux" {
		t.Errorf("Name = %q", mux.Name())
	}
	info := tick(2000, 1.5, 1.4, 0.1, 0)
	ps2, _ := NewPowerSave(PSConfig{Floor: 0.8})
	if got, want := decide(mux, info), decide(ps2, info); got != want {
		t.Errorf("transparent mux decision %d, want %d", got, want)
	}
}

func TestMultiplexedStaleEventChangesDecision(t *testing.T) {
	// One physical counter: the DCU event is stale every other tick.
	// First tick observes only InstRetired, so DCU reads zero ->
	// core-bound classification even for a memory-bound sample.
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	mux, _ := NewMultiplexed(ps, 1, []counters.Event{counters.InstRetired, counters.DCUMissOutstanding})
	memInfo := tick(2000, 0.3, 0.2, 4.0, 0)
	got := decide(mux, memInfo)
	// Unwrapped PS would drop to 800 MHz (memory-classified); the
	// muxed one, blind to DCU on this tick, treats it core-bound and
	// picks 1600.
	if f := memInfo.Table.At(got).FreqMHz; f != 1600 {
		t.Errorf("stale-DCU tick chose %d MHz, want 1600", f)
	}
	// Next tick observes DCU and recovers the memory classification.
	got = decide(mux, memInfo)
	if f := memInfo.Table.At(got).FreqMHz; f != 800 {
		t.Errorf("post-rotation tick chose %d MHz, want 800", f)
	}
}

func TestMultiplexedPassthroughInterfaces(t *testing.T) {
	sc := NewStaticClock(3, "s")
	mux, _ := NewMultiplexed(sc, 2, []counters.Event{counters.InstRetired})
	if mux.(machine.InitialStater).InitialIndex(7) != 3 {
		t.Error("InitialIndex not delegated")
	}
	if _, ok := mux.(machine.Throttler); ok {
		t.Error("non-throttling inner made the wrapper a Throttler")
	}
	th, _ := NewThrottleSave(ThrottleSaveConfig{Floor: 0.5})
	mux2, _ := NewMultiplexed(th, 2, []counters.Event{counters.InstRetired})
	decide(mux2, tick(2000, 1, 1, 0.1, 0))
	th2, ok := mux2.(machine.Throttler)
	if !ok {
		t.Fatal("throttling inner's wrapper is not a Throttler")
	}
	if th2.Duty() != 0.5 {
		t.Errorf("throttling inner duty = %g", th2.Duty())
	}
}
