package control

import (
	"math"
	"testing"

	"aapm/internal/counters"
	"aapm/internal/machine"
	"aapm/internal/pstate"
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
	pm.Tick(tick(2000, 1.0, 1.0, 0, 12))
	if gb := pm.EffectiveGuardbandW(); gb != DefaultGuardbandW {
		t.Fatalf("clean tick guardband = %g, want %g", gb, DefaultGuardbandW)
	}
	pm.Tick(nanTick(2000, 1.0, 1.0, 0))
	want := DefaultGuardbandW + DefaultDegradeGuardbandW
	if gb := pm.EffectiveGuardbandW(); gb != want {
		t.Fatalf("dropout guardband = %g, want %g", gb, want)
	}
	pm.Tick(tick(2000, 1.0, 1.0, 0, 12))
	if gb := pm.EffectiveGuardbandW(); gb != DefaultGuardbandW {
		t.Fatalf("restored guardband = %g, want %g", gb, DefaultGuardbandW)
	}

	// A naive PM keeps the base guardband throughout.
	naive := mk(false)
	naive.Tick(nanTick(2000, 1.0, 1.0, 0))
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
	topN := pmN.Tick(tick(2000, dpc, 1.0, 0, 12))
	topD := pmD.Tick(nanTick(2000, dpc, 1.0, 0))
	if topD > topN {
		t.Fatalf("degraded PM under dropout chose %d, above naive %d", topD, topN)
	}
}

func TestPMDegradeHoldsLastGoodDPC(t *testing.T) {
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	pm.Tick(tick(2000, 0.9, 1.0, 0, 12))
	if got := pm.LastEvalDPC(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("clean LastEvalDPC = %g, want 0.9", got)
	}
	pm.Tick(implausibleTick(2000))
	if got := pm.LastEvalDPC(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("hold LastEvalDPC = %g, want last good 0.9", got)
	}
	d := pm.DrainDegradations()
	var sawHold bool
	for _, e := range d {
		if e.Source == "pm" && e.Kind == "hold-dpc" {
			sawHold = true
		}
	}
	if !sawHold {
		t.Fatalf("no pm/hold-dpc degradation logged; got %v", d)
	}
	if len(pm.DrainDegradations()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestPMNaiveFeedbackIgnoresInfReading(t *testing.T) {
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, FeedbackGain: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	pm.Tick(tick(2000, 1.0, 1.0, 0, 12))
	before := pm.st.Corr
	info := tick(2000, 1.0, 1.0, 0, 0)
	info.MeasuredPowerW = math.Inf(1)
	pm.Tick(info)
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
	// Core-bound busy sample at 2000 MHz: floor 0.8 -> 1600 MHz.
	busy := tick(2000, 1.0, 1.0, 0, 12)
	wantIdx := ps.Tick(busy)
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
		got := ps.Tick(stale)
		if got != wantIdx {
			t.Fatalf("hold tick %d chose index %d, want %d", i, got, wantIdx)
		}
		if ps.LastMode() != PSHold {
			t.Fatalf("hold tick %d mode = %v", i, ps.LastMode())
		}
	}
	// Past StaleTicks: offline core-bound fallback (>= 0.8*2000 MHz).
	got := ps.Tick(stale)
	if ps.LastMode() != PSOffline {
		t.Fatalf("mode after stale window = %v, want offline", ps.LastMode())
	}
	if f := tab.At(got).FreqMHz; f < 1600 {
		t.Fatalf("offline fallback chose %d MHz, below floor frequency 1600", f)
	}
	// Recovery returns to normal projection.
	if ps.Tick(busy) != wantIdx {
		t.Fatal("recovery tick did not resume normal projection")
	}
	if ps.LastMode() != PSNormal {
		t.Fatalf("recovery mode = %v", ps.LastMode())
	}
	counts := map[string]int{}
	for _, e := range ps.DrainDegradations() {
		counts[e.Source+"/"+e.Kind]++
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
	if got := ps.Tick(stale); got != 0 {
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
	got := ps.Tick(info)
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
