package control

import (
	"math"
	"strings"
	"testing"

	"aapm/internal/counters"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/trace"
)

// nanTick is tick() with a NaN measured-power reading (sensor dropout).
func nanTick(freqMHz int, dpc, ipc, dcuPerInst float64) machine.TickInfo {
	info := tick(freqMHz, dpc, ipc, dcuPerInst, 0)
	info.MeasuredPowerW = math.NaN()
	return info
}

// implausibleTick is tick() whose sample carries a wrapped counter
// delta: a decode count far beyond any real per-cycle rate.
func implausibleTick(freqMHz int) machine.TickInfo {
	info := tick(freqMHz, 1, 1, 0, 12)
	var s counters.Sample
	s.SetCount(counters.Cycles, 1_000_000)
	s.SetCount(counters.InstDecoded, 1<<40)
	info.Sample = s
	return info
}

func TestPMDegradeWidensGuardbandOnDropout(t *testing.T) {
	mk := func(degrade bool) *PerformanceMaximizer {
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	pm := mk(true)
	decide(pm, tick(2000, 1.0, 1.0, 0, 12))
	if gb := pm.EffectiveGuardbandW(); gb != DefaultGuardbandW {
		t.Fatalf("clean tick guardband = %g, want %g", gb, DefaultGuardbandW)
	}
	decide(pm, nanTick(2000, 1.0, 1.0, 0))
	want := DefaultGuardbandW + DefaultDegradeGuardbandW
	if gb := pm.EffectiveGuardbandW(); gb != want {
		t.Fatalf("dropout guardband = %g, want %g", gb, want)
	}
	decide(pm, tick(2000, 1.0, 1.0, 0, 12))
	if gb := pm.EffectiveGuardbandW(); gb != DefaultGuardbandW {
		t.Fatalf("restored guardband = %g, want %g", gb, DefaultGuardbandW)
	}

	// A naive PM keeps the base guardband throughout.
	naive := mk(false)
	decide(naive, nanTick(2000, 1.0, 1.0, 0))
	if gb := naive.EffectiveGuardbandW(); gb != DefaultGuardbandW {
		t.Fatalf("naive dropout guardband = %g, want %g", gb, DefaultGuardbandW)
	}
}

func TestPMDegradeWiderGuardbandIsMoreConservative(t *testing.T) {
	// At a decode rate that exactly fits the limit at 2000 MHz with the
	// base guardband, the widened dropout guardband must pick a lower
	// state.
	pmN, _ := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	pmD, _ := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, Degrade: true})
	// Find a DPC where naive PM stays at top.
	dpc := 0.8
	topN := decide(pmN, tick(2000, dpc, 1.0, 0, 12))
	topD := decide(pmD, nanTick(2000, dpc, 1.0, 0))
	if topD > topN {
		t.Fatalf("degraded PM under dropout chose %d, above naive %d", topD, topN)
	}
}

func TestPMDegradeHoldsLastGoodDPC(t *testing.T) {
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	decide(pm, tick(2000, 0.9, 1.0, 0, 12))
	if got := pm.LastEvalDPC(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("clean LastEvalDPC = %g, want 0.9", got)
	}
	hold := implausibleTick(2000)
	_, d := pm.Tick(&hold)
	if got := pm.LastEvalDPC(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("hold LastEvalDPC = %g, want last good 0.9", got)
	}
	if !hasDegradation(d, "pm", "hold-dpc") {
		t.Fatalf("no pm/hold-dpc degradation logged; got %v", d)
	}
	// The hold episode is already open: a second implausible tick
	// notes nothing new.
	if _, d := pm.Tick(&hold); len(d) != 0 {
		t.Fatalf("second hold tick noted %v, want nothing", d)
	}
}

func TestPMNaiveFeedbackIgnoresInfReading(t *testing.T) {
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, FeedbackGain: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	decide(pm, tick(2000, 1.0, 1.0, 0, 12))
	before := pm.st.Corr
	info := tick(2000, 1.0, 1.0, 0, 0)
	info.MeasuredPowerW = math.Inf(1)
	decide(pm, info)
	if pm.st.Corr != before {
		t.Fatalf("corr moved on +Inf reading: %g -> %g", before, pm.st.Corr)
	}
}

func TestPSDegradeHoldThenOfflineFallback(t *testing.T) {
	ps, err := NewPowerSave(PSConfig{Floor: 0.8, Degrade: true, StaleTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	tab := pstate.PentiumM755()
	// step ticks ps, collecting the degradations each tick returns.
	counts := map[string]int{}
	step := func(info machine.TickInfo) int {
		want, d := ps.Tick(&info)
		for _, e := range d {
			counts[e.Source+"/"+e.Kind]++
		}
		return want
	}
	// Core-bound busy sample at 2000 MHz: floor 0.8 -> 1600 MHz.
	busy := tick(2000, 1.0, 1.0, 0, 12)
	wantIdx := step(busy)
	if tab.At(wantIdx).FreqMHz != 1600 {
		t.Fatalf("busy tick chose %d MHz, want 1600", tab.At(wantIdx).FreqMHz)
	}
	if ps.LastMode() != PSNormal {
		t.Fatalf("busy mode = %v, want normal", ps.LastMode())
	}
	// Stale zeros: hold the projection for StaleTicks.
	stale := tick(2000, 0, 0, 0, 12)
	var s counters.Sample
	stale.Sample = s
	for i := 0; i < 3; i++ {
		got := step(stale)
		if got != wantIdx {
			t.Fatalf("hold tick %d chose index %d, want %d", i, got, wantIdx)
		}
		if ps.LastMode() != PSHold {
			t.Fatalf("hold tick %d mode = %v", i, ps.LastMode())
		}
	}
	// Past StaleTicks: offline core-bound fallback (>= 0.8*2000 MHz).
	got := step(stale)
	if ps.LastMode() != PSOffline {
		t.Fatalf("mode after stale window = %v, want offline", ps.LastMode())
	}
	if f := tab.At(got).FreqMHz; f < 1600 {
		t.Fatalf("offline fallback chose %d MHz, below floor frequency 1600", f)
	}
	// Recovery returns to normal projection.
	if step(busy) != wantIdx {
		t.Fatal("recovery tick did not resume normal projection")
	}
	if ps.LastMode() != PSNormal {
		t.Fatalf("recovery mode = %v", ps.LastMode())
	}
	if counts["ps/stale-counters"] == 0 || counts["ps/offline-fallback"] == 0 || counts["ps/counters-restored"] == 0 {
		t.Fatalf("degradation log incomplete: %v", counts)
	}
}

func TestPSDegradeIdleWithoutHistory(t *testing.T) {
	ps, err := NewPowerSave(PSConfig{Floor: 0.8, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	stale := tick(2000, 0, 0, 0, 12)
	stale.Sample = counters.Sample{}
	if got := decide(ps, stale); got != 0 {
		t.Fatalf("zero sample with no history chose %d, want 0 (idle)", got)
	}
	if ps.LastMode() != PSIdle {
		t.Fatalf("mode = %v, want idle", ps.LastMode())
	}
}

func TestPSNaiveGarbageSampleStandsStill(t *testing.T) {
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	info := implausibleTick(1400)
	// Retired count of zero with huge decoded count: IPC 0 but sample
	// implausible; naive PS must not jump to max on garbage.
	info.Sample.SetCount(counters.InstRetired, 1<<40)
	got := decide(ps, info)
	if got != info.PStateIndex {
		t.Fatalf("naive PS moved to %d on implausible sample, want hold at %d", got, info.PStateIndex)
	}
}

func TestPSModeString(t *testing.T) {
	for m, want := range map[PSMode]string{PSNormal: "normal", PSIdle: "idle", PSHold: "hold", PSOffline: "offline", PSMode(99): "psmode(99)"} {
		if m.String() != want {
			t.Errorf("PSMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestPSValidatesStaleTicks(t *testing.T) {
	if _, err := NewPowerSave(PSConfig{Floor: 0.8, StaleTicks: -1}); err == nil {
		t.Error("negative StaleTicks accepted")
	}
}

func TestDegradeNames(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 13.5, Degrade: true})
	if pm.Name() != "PM+dg(13.5W)" {
		t.Errorf("PM name = %q", pm.Name())
	}
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8, Degrade: true})
	if got := ps.Name(); got != "PS+dg(80%,e=0.81)" {
		t.Errorf("PS name = %q", got)
	}
}

// hasDegradation reports whether ds holds a source/kind event.
func hasDegradation(ds []trace.Degradation, source, kind string) bool {
	for _, d := range ds {
		if d.Source == source && d.Kind == kind {
			return true
		}
	}
	return false
}

// TestWrappersForwardDegradations runs a degrading PM and a degrading
// PS, each behind Multiplexed, under a fault plan. A wrapper returns
// its inner governor's Tick result, so the inner governor's
// degradations must reach the run's log, and a wrapper's Tick called
// by hand must return them.
func TestWrappersForwardDegradations(t *testing.T) {
	psEvents := []counters.Event{counters.InstRetired, counters.DCUMissOutstanding}
	pmEvents := []counters.Event{counters.InstDecoded, counters.DCUMissOutstanding}
	pmMultiplexed := func(t *testing.T) machine.Governor {
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 13.5, Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		mux, err := NewMultiplexed(pm, 2, pmEvents)
		if err != nil {
			t.Fatal(err)
		}
		return mux
	}
	multiplexed := func(t *testing.T) machine.Governor {
		ps, err := NewPowerSave(PSConfig{Floor: 0.8, Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		mux, err := NewMultiplexed(ps, 2, psEvents)
		if err != nil {
			t.Fatal(err)
		}
		return mux
	}

	plan := faults.Preset(0.08)
	w, err := spec.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = 1
	for _, c := range []struct {
		source string
		gov    func(t *testing.T) machine.Governor
	}{{"pm", pmMultiplexed}, {"ps", multiplexed}} {
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 5, Faults: &plan})
		if err != nil {
			t.Fatal(err)
		}
		run, err := m.Run(w, c.gov(t))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for key, k := range run.DegradationCounts {
			if strings.HasPrefix(key, c.source+"/") {
				n += k
			}
		}
		if n == 0 {
			t.Errorf("%s: the run logged no %s degradations (counts %v)", run.Policy, c.source, run.DegradationCounts)
		}
	}

	// By hand: a sensor dropout through the multiplexed PM, and a
	// stale sample after a busy one through the multiplexed PS.
	dropout := nanTick(2000, 1.0, 1.0, 0)
	if _, d := pmMultiplexed(t).Tick(&dropout); !hasDegradation(d, "pm", "sensor-dropout") {
		t.Errorf("multiplexed PM tick returned %v, want pm/sensor-dropout", d)
	}
	mux := multiplexed(t)
	busy := tick(2000, 1.0, 1.0, 0, 12)
	before := busy // the multiplexed view drops InstDecoded
	mux.Tick(&busy)
	if busy != before {
		t.Error("Multiplexed wrote through the engine's TickInfo")
	}
	stale := tick(2000, 0, 0, 0, 12)
	stale.Sample = counters.Sample{}
	if _, d := mux.Tick(&stale); !hasDegradation(d, "ps", "stale-counters") {
		t.Errorf("Multiplexed tick returned %v, want ps/stale-counters", d)
	}
}
