package experiment

import (
	"strings"
	"testing"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/trace"
)

// The ISSUE's acceptance criterion: under a 5% sensor-dropout plan at
// an identical seed, PM with graceful degradation must keep its
// limit-violation fraction (judged on ground-truth power) strictly
// below naive PM's.
func TestPMDegradationBeatsNaiveUnderDropout(t *testing.T) {
	c, err := NewContext(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Sensor: faults.SensorPlan{DropoutProb: 0.05, DropoutTicks: 10}}
	const limit = 13.5
	w, err := c.Workload("galgel")
	if err != nil {
		t.Fatal(err)
	}
	run := func(degrade bool) *trace.Run {
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limit, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.runUncached(machine.Config{Faults: &plan}, w, pm, withRows)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	naive := run(false)
	degraded := run(true)
	nv := trace.FractionAbove(naive.TruePowers(), limit)
	dv := trace.FractionAbove(degraded.TruePowers(), limit)
	t.Logf("naive violation %.3f%%, degraded %.3f%%", nv*100, dv*100)
	if !(dv < nv) {
		t.Fatalf("degraded PM violation fraction %.4f not strictly below naive %.4f", dv, nv)
	}
	if degraded.DegradationTotal() == 0 {
		t.Fatal("degraded run logged no degradation events")
	}
	if degraded.DegradationCounts["pm/sensor-dropout"] == 0 {
		t.Fatalf("no pm/sensor-dropout responses logged: %v", degraded.DegradationCounts)
	}
}

// PS with degradation must keep delivering what a clean PS delivers
// when counter misses starve the projection, where naive PS misreads
// zero samples as idle and sinks toward minimum frequency. (The floor
// itself is a guarantee on projected performance — art is the paper's
// known case where true performance lands below it even when clean.)
func TestPSDegradationHoldsFloorUnderCounterMiss(t *testing.T) {
	c, err := NewContext(Options{Seed: 1, ScaleDown: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.RunStatic("art", 2000)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := c.RunPS("art", 0.8, 0.81)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Counter: faults.CounterPlan{MissProb: 0.3}}
	const floor = 0.8
	w, err := c.Workload("art")
	if err != nil {
		t.Fatal(err)
	}
	run := func(degrade bool) *trace.Run {
		ps, err := control.NewPowerSave(control.PSConfig{Floor: floor, Degrade: degrade})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.runUncached(machine.Config{Faults: &plan}, w, ps, withRows)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	perf := func(r *trace.Run) float64 {
		return (r.Instructions / r.Duration.Seconds()) / (base.Instructions / base.Duration.Seconds())
	}
	cleanPerf := perf(clean)
	naive := perf(run(false))
	degraded := perf(run(true))
	t.Logf("clean PS %.1f%%, naive faulted %.1f%%, degraded faulted %.1f%% of peak", cleanPerf*100, naive*100, degraded*100)
	if degraded <= naive {
		t.Fatalf("degraded PS perf %.3f not above naive %.3f under 30%% counter miss", degraded, naive)
	}
	if degraded < cleanPerf-0.03 {
		t.Fatalf("degraded PS perf %.3f fell more than 3pp below clean PS %.3f", degraded, cleanPerf)
	}
}

func TestFaultSweepRunsScaledDown(t *testing.T) {
	c, err := NewContext(Options{Seed: 5, ScaleDown: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PM) != len(FaultRates()) || len(res.PS) != len(FaultRates()) {
		t.Fatalf("rows: PM %d PS %d, want %d", len(res.PM), len(res.PS), len(FaultRates()))
	}
	if res.PM[0].NaiveEvents != 0 || res.PM[0].DegradedEvents != 0 {
		t.Fatalf("clean rate logged events: %+v", res.PM[0])
	}
	last := res.PM[len(res.PM)-1]
	if last.DegradedEvents == 0 {
		t.Fatalf("10%% dropout logged no events: %+v", last)
	}
	var sb strings.Builder
	if err := res.Print(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"galgel", "art", "naive viol", "degr perf"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Print output missing %q", want)
		}
	}
}

func TestFaultsRegistered(t *testing.T) {
	for _, e := range Registry() {
		if e.Name == "faults" {
			return
		}
	}
	t.Fatal("faults experiment not in registry")
}
