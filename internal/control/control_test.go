package control

import (
	"testing"
	"time"

	"aapm/internal/counters"
	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/pstate"
)

func tick(freqMHz int, dpc, ipc, dcuPerInst, measuredW float64) machine.TickInfo {
	tab := pstate.PentiumM755()
	ps, err := tab.ByFreq(freqMHz)
	if err != nil {
		panic(err)
	}
	var s counters.Sample
	const cycles = 1_000_000
	s.SetCount(counters.Cycles, cycles)
	s.SetCount(counters.InstDecoded, uint64(dpc*cycles))
	s.SetCount(counters.InstRetired, uint64(ipc*cycles))
	s.SetCount(counters.DCUMissOutstanding, uint64(dcuPerInst*ipc*cycles))
	return machine.TickInfo{
		Now:            time.Second,
		Interval:       10 * time.Millisecond,
		Sample:         s,
		PState:         ps,
		PStateIndex:    tab.IndexOf(freqMHz),
		Table:          tab,
		MeasuredPowerW: measuredW,
	}
}

// decide ticks g once on info and returns its decision.
func decide(g machine.Governor, info machine.TickInfo) int {
	want, _ := g.Tick(&info)
	return want
}

func TestStaticClock(t *testing.T) {
	s := NewStaticClock(3, "")
	if s.Name() != "static[3]" {
		t.Errorf("Name = %q", s.Name())
	}
	if got := decide(s, tick(2000, 1, 1, 0, 0)); got != 3 {
		t.Errorf("Tick = %d, want 3", got)
	}
	if got := s.InitialIndex(7); got != 3 {
		t.Errorf("InitialIndex = %d, want 3", got)
	}
	if NewStaticClock(1, "custom").Name() != "custom" {
		t.Error("custom label ignored")
	}
}

func TestPMValidation(t *testing.T) {
	if _, err := NewPerformanceMaximizer(PMConfig{}); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := NewPerformanceMaximizer(PMConfig{LimitW: 10, FeedbackGain: 2}); err == nil {
		t.Error("feedback gain > 1 accepted")
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	if pm.Limit() != 14.5 {
		t.Errorf("Limit = %g", pm.Limit())
	}
}

func TestPMGuardbandSemantics(t *testing.T) {
	// Zero value selects the paper's 0.5 W; negative disables.
	def, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5})
	if def.pol.cfg.GuardbandW != DefaultGuardbandW {
		t.Errorf("default guardband = %g, want %g", def.pol.cfg.GuardbandW, DefaultGuardbandW)
	}
	off, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5, GuardbandW: -1})
	if off.pol.cfg.GuardbandW != 0 {
		t.Errorf("disabled guardband = %g, want 0", off.pol.cfg.GuardbandW)
	}
	exp, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5, GuardbandW: 1.25})
	if exp.pol.cfg.GuardbandW != 1.25 {
		t.Errorf("explicit guardband = %g", exp.pol.cfg.GuardbandW)
	}
}

func TestPMDropsImmediately(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 13.5})
	// High decode rate at 2000 MHz: model predicts ~18 W, so PM must
	// leave 2000 at once. est@1600 = 1.82*2 + 8.44 + 0.5 = 12.58.
	got := decide(pm, tick(2000, 2.0, 1.6, 0.1, 0))
	tab := pstate.PentiumM755()
	if f := tab.At(got).FreqMHz; f != 1600 {
		t.Errorf("PM chose %d MHz, want 1600", f)
	}
}

func TestPMRaiseNeedsConsecutiveSamples(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5})
	tab := pstate.PentiumM755()
	i1800 := tab.IndexOf(1800)
	low := tick(1800, 0.5, 0.5, 0.1, 0) // est@2000 = 2.93*0.5+12.61 ~ 14 W: feasible
	for k := 0; k < DefaultRaiseTicks-1; k++ {
		if got := decide(pm, low); got != i1800 {
			t.Fatalf("raised after %d samples, want %d", k+1, DefaultRaiseTicks)
		}
	}
	if got := decide(pm, low); tab.At(got).FreqMHz != 2000 {
		t.Errorf("did not raise after %d consecutive samples", DefaultRaiseTicks)
	}
}

func TestPMRaiseCounterResetsOnContrarySample(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5})
	tab := pstate.PentiumM755()
	i1800 := tab.IndexOf(1800)
	low := tick(1800, 0.5, 0.5, 0.1, 0)
	high := tick(1800, 1.8, 1.5, 0.1, 0) // est@2000 ~ 17.9: stay at 1800
	for k := 0; k < DefaultRaiseTicks-1; k++ {
		decide(pm, low)
	}
	if got := decide(pm, high); got != i1800 {
		t.Fatalf("contrary sample moved PM to index %d", got)
	}
	// The streak must restart.
	for k := 0; k < DefaultRaiseTicks-1; k++ {
		if got := decide(pm, low); got != i1800 {
			t.Fatalf("raised after only %d samples post-reset", k+1)
		}
	}
	if got := decide(pm, low); tab.At(got).FreqMHz != 2000 {
		t.Error("did not raise after a full new streak")
	}
}

func TestBypassHysteresisArmsNextTick(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5})
	low := tick(1800, 0.5, 0.5, 0.1, 0)
	pm.BypassHysteresis()
	if got := decide(pm, low); tickTable().At(got).FreqMHz != 2000 {
		t.Errorf("armed PM did not raise on the next supporting sample (index %d)", got)
	}
}

func TestPMSetLimitTakesEffect(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 17.5})
	mid := tick(1800, 1.0, 0.9, 0.2, 0) // est@1800 = 13.04: fine at 17.5
	if got := decide(pm, mid); pstate.PentiumM755().At(got).FreqMHz != 1800 {
		t.Fatalf("unexpected move at 17.5 W")
	}
	pm.SetLimit(10.5)
	if pm.Limit() != 10.5 {
		t.Fatalf("SetLimit ignored")
	}
	// est@1400 = 1.42+6.95+0.5 = 8.87 <= 10.5; est@1600 = 1.82+8.44+0.5
	// = 10.76 > 10.5 -> drop to 1400 immediately.
	got := decide(pm, mid)
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 1400 {
		t.Errorf("after SetLimit(10.5), chose %d MHz, want 1400", f)
	}
}

func TestPMInfeasibleLimitFallsToMinimum(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 1.0})
	if got := decide(pm, tick(2000, 1.5, 1.2, 0.1, 0)); got != 0 {
		t.Errorf("infeasible limit chose index %d, want 0", got)
	}
}

func TestPMNameIncludesLimit(t *testing.T) {
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if pm.Name() != "PM(14.5W)" {
		t.Errorf("Name = %q", pm.Name())
	}
	fb, _ := NewPerformanceMaximizer(PMConfig{LimitW: 14.5, FeedbackGain: 0.2})
	if fb.Name() != "PM+fb(14.5W)" {
		t.Errorf("Name = %q", fb.Name())
	}
}

func TestPMFeedbackCorrectsUnderestimation(t *testing.T) {
	// Model says ~15.5 W at 1800 for DPC 2.0 (2.36*2+10.18 = 14.9 plus
	// guardband), but "measured" power is persistently 17 W. With
	// feedback, PM should learn the scale factor and stop choosing
	// states the plain model would pick.
	plain, _ := NewPerformanceMaximizer(PMConfig{LimitW: 15.8})
	fb, _ := NewPerformanceMaximizer(PMConfig{LimitW: 15.8, FeedbackGain: 0.5})
	sample := tick(1800, 2.0, 1.6, 0.1, 17.0)
	if got := decide(plain, sample); pstate.PentiumM755().At(got).FreqMHz != 1800 {
		t.Fatalf("plain PM left 1800 unexpectedly")
	}
	var got int
	for k := 0; k < 10; k++ {
		got = decide(fb, sample)
	}
	if f := pstate.PentiumM755().At(got).FreqMHz; f >= 1800 {
		t.Errorf("feedback PM stayed at %d MHz despite measured overdraw", f)
	}
}

func TestPSValidation(t *testing.T) {
	if _, err := NewPowerSave(PSConfig{Floor: 0}); err == nil {
		t.Error("zero floor accepted")
	}
	if _, err := NewPowerSave(PSConfig{Floor: 1.5}); err == nil {
		t.Error("floor > 1 accepted")
	}
	if _, err := NewPowerSave(PSConfig{Floor: 0.8, Perf: model.PerfModel{Threshold: -1, Exponent: 0.8}}); err == nil {
		t.Error("invalid perf model accepted")
	}
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Floor() != 0.8 {
		t.Errorf("Floor = %g", ps.Floor())
	}
	if ps.Name() != "PS(80%,e=0.81)" {
		t.Errorf("Name = %q", ps.Name())
	}
}

func TestPSCoreBoundPicksExactFloorState(t *testing.T) {
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	// Core-bound at 2000: the 80% floor is exactly 1600 MHz.
	got := decide(ps, tick(2000, 1.5, 1.4, 0.1, 0))
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 1600 {
		t.Errorf("PS chose %d MHz, want 1600", f)
	}
	// And it is stable there.
	got = decide(ps, tick(1600, 1.5, 1.4, 0.1, 0))
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 1600 {
		t.Errorf("PS moved from 1600 to %d MHz", f)
	}
}

func TestPSMemoryBoundDropsLow(t *testing.T) {
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	// Deep memory-bound: predicted perf ratio (f'/2000)^0.19 >= 0.8
	// first holds at 800 MHz.
	got := decide(ps, tick(2000, 0.3, 0.2, 4.0, 0))
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 800 {
		t.Errorf("PS chose %d MHz, want 800", f)
	}
}

func TestPSAltExponentIsLessAggressive(t *testing.T) {
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8, Perf: model.PerfModel{Threshold: model.PaperDCUThreshold, Exponent: model.PaperExponentAlt}})
	got := decide(ps, tick(2000, 0.3, 0.2, 4.0, 0))
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 1200 {
		t.Errorf("PS(e=0.59) chose %d MHz, want 1200", f)
	}
}

func TestPSIdleGoesToMinimum(t *testing.T) {
	ps, _ := NewPowerSave(PSConfig{Floor: 0.8})
	if got := decide(ps, tick(2000, 0, 0, 0, 0)); got != 0 {
		t.Errorf("idle tick chose index %d, want 0", got)
	}
}

func TestPSLowFloors(t *testing.T) {
	tab := pstate.PentiumM755()
	core := tick(2000, 1.5, 1.4, 0.1, 0)
	for _, c := range []struct {
		floor float64
		want  int
	}{
		{0.60, 1200},
		{0.40, 800},
		{0.20, 600},
	} {
		ps, _ := NewPowerSave(PSConfig{Floor: c.floor})
		got := decide(ps, core)
		if f := tab.At(got).FreqMHz; f != c.want {
			t.Errorf("floor %.0f%%: chose %d MHz, want %d", c.floor*100, f, c.want)
		}
	}
}

func TestOnDemandFullLoadPinsMax(t *testing.T) {
	od := &OnDemand{}
	info := tick(1000, 1.2, 1.0, 0.2, 0)
	// Busy for the whole 10 ms interval at 1 GHz.
	var s counters.Sample
	s.SetCount(counters.Cycles, uint64(1000*1e6*0.01))
	info.Sample = s
	got := decide(od, info)
	if f := pstate.PentiumM755().At(got).FreqMHz; f != 2000 {
		t.Errorf("ondemand at full load chose %d MHz, want 2000", f)
	}
	if od.Name() != "ondemand" {
		t.Errorf("Name = %q", od.Name())
	}
}

func TestOnDemandLowUtilizationDrops(t *testing.T) {
	od := &OnDemand{}
	tab := pstate.PentiumM755()
	info := tick(2000, 1.2, 1.0, 0.2, 0)
	// Busy cycles for only 10% of the interval at 2 GHz.
	var s counters.Sample
	s.SetCount(counters.Cycles, uint64(0.10*2e9*0.01))
	info.Sample = s
	got := decide(od, info)
	// Demand 200 MHz-equivalents / 0.8 -> lowest state covering 250.
	if f := tab.At(got).FreqMHz; f != 600 {
		t.Errorf("ondemand at 10%% load chose %d MHz, want 600", f)
	}
}

// tickTable returns the table the tick helper builds its infos from.
func tickTable() *pstate.Table { return pstate.PentiumM755() }
