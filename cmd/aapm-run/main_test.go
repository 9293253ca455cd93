package main

import (
	"strings"
	"testing"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/trace"
)

// metricsRun steps a short PM run as -metrics does and returns it with
// the session's stage totals.
func metricsRun(t *testing.T, timed bool) (*trace.Run, [machine.NumStages]int64) {
	t.Helper()
	m, err := machine.New(machine.Config{Seed: 1, Chain: sensor.NIDefault()})
	if err != nil {
		t.Fatal(err)
	}
	w := phase.Workload{
		Name: "metrics-test",
		Phases: []phase.Params{{
			Name: "p", Instructions: 5e8,
			CPICore: 0.5, L2APKI: 10, MemAPKI: 1, MLP: 2, SpecFactor: 1.2, StallFrac: 0.05,
		}},
	}
	pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession(w, pm)
	if err != nil {
		t.Fatal(err)
	}
	if timed {
		s.EnableStageTiming()
	}
	for done := false; !done; {
		if done, err = s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return s.Result(), s.StageNanos()
}

func printed(t *testing.T, run *trace.Run, limitW float64, stages [machine.NumStages]int64) string {
	t.Helper()
	var b strings.Builder
	if err := printMetrics(&b, run, limitW, stages); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrintMetrics(t *testing.T) {
	run, stages := metricsRun(t, false)
	out := printed(t, run, 14.5, stages)
	for _, want := range []string{"ticks", "transitions", "stall time", "busy time", "energy", "avg power", "degradations", "violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "per-stage wall-clock") {
		t.Error("per-stage section printed without timing enabled")
	}
	if out := printed(t, run, 0, stages); strings.Contains(out, "violations") {
		t.Errorf("violations printed with no limit:\n%s", out)
	}

	run, stages = metricsRun(t, true)
	out = printed(t, run, 14.5, stages)
	for _, name := range machine.StageNames {
		if !strings.Contains(out, name) {
			t.Errorf("timed output missing stage %q:\n%s", name, out)
		}
	}

	// An empty run prints without dividing by zero.
	if out := printed(t, &trace.Run{}, 14.5, [machine.NumStages]int64{}); strings.Contains(out, "NaN") {
		t.Errorf("empty run printed NaN:\n%s", out)
	}
}
