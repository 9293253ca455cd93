package telemetry

import (
	"math"
	"testing"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
)

func testWorkload() phase.Workload {
	return phase.Workload{
		Name: "obs-test",
		Phases: []phase.Params{{
			Name: "p", Instructions: 5e8,
			CPICore: 0.5, L2APKI: 10, MemAPKI: 1, MLP: 2, SpecFactor: 1.2, StallFrac: 0.05,
		}},
	}
}

// TestObserverMatchesRun cross-checks the registry totals against the
// counters the tick engine totals into the run the observer watched.
func TestObserverMatchesRun(t *testing.T) {
	// A nonzero switch cost gives the stall counter something to count.
	m, err := machine.New(machine.Config{Seed: 1, Chain: sensor.NIDefault(), TransitionLatency: -1})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	run, err := m.RunWith(testWorkload(), pm, NewObserver(reg, "n0", "pm"))
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	get := func(fam string, labels ...string) (SeriesSnapshot, bool) {
		for _, f := range snap.Families {
			if f.Name != fam {
				continue
			}
			for _, s := range f.Series {
				if len(s.Labels) != len(labels) {
					continue
				}
				match := true
				for i := range labels {
					if s.Labels[i] != labels[i] {
						match = false
						break
					}
				}
				if match {
					return s, true
				}
			}
		}
		return SeriesSnapshot{}, false
	}

	ticks, ok := get(MetricTicks, "n0", "pm")
	if !ok || int(ticks.Value) != run.Ticks {
		t.Errorf("ticks = %v (ok=%v), want %d", ticks.Value, ok, run.Ticks)
	}
	if run.Ticks != len(run.Rows) {
		t.Errorf("run ticks %d != trace rows %d", run.Ticks, len(run.Rows))
	}
	for _, c := range []struct {
		fam       string
		want, tol float64
	}{
		{MetricVirtualSec, run.Duration.Seconds(), 1e-9},
		{MetricEnergy, run.EnergyJ, 1e-9 * run.EnergyJ},
		{MetricStallSec, run.StallTime.Seconds(), 1e-9},
		{MetricBusySec, run.BusyTime.Seconds(), 1e-9},
	} {
		got, _ := get(c.fam, "n0", "pm")
		if math.Abs(got.Value-c.want) > c.tol {
			t.Errorf("%s = %g, want %g", c.fam, got.Value, c.want)
		}
	}
	if run.StallTime <= 0 || run.BusyTime <= 0 {
		t.Errorf("stall %v, busy %v: want both positive for a PM run with transitions", run.StallTime, run.BusyTime)
	}
	transOK, _ := get(MetricTransitions, "n0", "pm", "ok")
	if int(transOK.Value) != run.Transitions {
		t.Errorf("ok transitions = %v, want %d", transOK.Value, run.Transitions)
	}
	transFail, ok := get(MetricTransitions, "n0", "pm", "failed")
	if !ok || int(transFail.Value) != run.FailedTransitions {
		t.Errorf("failed transitions = %v, want %d", transFail.Value, run.FailedTransitions)
	}
	done, _ := get(MetricRunsDone, "n0", "pm")
	if done.Value != 1 {
		t.Errorf("runs completed = %v, want 1", done.Value)
	}
	hist, ok := get(MetricIntervalW, "n0", "pm")
	if !ok || hist.Count != uint64(run.Ticks) {
		t.Errorf("interval histogram count = %d, want %d ticks", hist.Count, run.Ticks)
	}
	freq, _ := get(MetricFreq, "n0", "pm")
	if freq.Value <= 0 {
		t.Errorf("frequency gauge = %v", freq.Value)
	}
}

// TestObserverDegradations feeds a faulted run and checks degradation
// counters appear per source without poisoning the power counters with
// the NaN measurements dropout produces.
func TestObserverDegradations(t *testing.T) {
	plan := faults.Preset(0.1)
	m, err := machine.New(machine.Config{Seed: 3, Chain: sensor.NIDefault(), Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	run, err := m.RunWith(testWorkload(), nil, NewObserver(reg, "n0", "none"))
	if err != nil {
		t.Fatal(err)
	}
	if run.DegradationTotal() == 0 {
		t.Fatal("fault preset produced no degradations; test is vacuous")
	}
	var total float64
	for _, f := range reg.Snapshot().Families {
		if f.Name != MetricDegradations {
			continue
		}
		for _, s := range f.Series {
			total += s.Value
		}
	}
	if int(total) != run.DegradationTotal() {
		t.Errorf("degradation series sum = %v, want %d", total, run.DegradationTotal())
	}
	for _, f := range reg.Snapshot().Families {
		for _, s := range f.Series {
			if math.IsNaN(s.Value) || math.IsNaN(s.Sum) {
				t.Errorf("family %s has NaN after faulted run", f.Name)
			}
		}
	}
}

func TestSampleRuntime(t *testing.T) {
	reg := NewRegistry()
	SampleRuntime(reg)
	snap := reg.Snapshot()
	if len(snap.Families) == 0 {
		t.Fatal("SampleRuntime registered no families")
	}
	var goroutines float64
	for _, f := range snap.Families {
		if f.Name == "go_goroutines" {
			goroutines = f.Series[0].Value
		}
	}
	if goroutines < 1 {
		t.Errorf("go_goroutines = %g, want >= 1", goroutines)
	}
}
