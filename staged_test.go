package aapm

// A Session stepped by hand, with hooks subscribed and stage timing
// on, must reproduce the same pinned fixtures as Platform.Run. The
// test names keep the "staged" prefix of the per-stage engine these
// checks were first written against; Session now steps the one-lane
// batch's generic body.

import (
	"bytes"
	"testing"
)

// stagedGoldenRun steps a Session over the canonical fixture
// configuration with a metrics collector and a second, inert
// subscriber and stage timing enabled — everything that must NOT
// perturb the trace.
func stagedGoldenRun(t *testing.T, gov Governor) (*Run, *RunMetrics) {
	t.Helper()
	m, w := goldenPlatform(t)
	s, err := m.NewSession(w, gov)
	if err != nil {
		t.Fatal(err)
	}
	col := NewMetricsCollector(14.5)
	s.Subscribe(col)
	s.Subscribe(HookBase{})
	s.EnableStageTiming()
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	return s.Result(), col
}

func TestStagedEngineMatchesGoldenPM(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPMTrace")
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	run, col := stagedGoldenRun(t, pm)
	checkGolden(t, "golden_pm_ammp.csv", run)
	if col.Ticks != len(run.Rows) {
		t.Errorf("collector saw %d ticks, trace has %d rows", col.Ticks, len(run.Rows))
	}
	if col.StageTotal() <= 0 {
		t.Error("stage timing enabled but nothing recorded")
	}
}

func TestStagedEngineMatchesGoldenPS(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPSTrace")
	}
	ps, err := NewPowerSave(PSConfig{Floor: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	run, col := stagedGoldenRun(t, ps)
	checkGolden(t, "golden_ps_ammp.csv", run)
	if col.Ticks != len(run.Rows) {
		t.Errorf("collector saw %d ticks, trace has %d rows", col.Ticks, len(run.Rows))
	}
}

// Stepping a session by hand and Platform.Run produce byte-identical
// traces.
func TestStagedEngineMatchesRun(t *testing.T) {
	csv := func(run *Run) []byte {
		var buf bytes.Buffer
		if err := run.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mk := func() Governor {
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	stepped, _ := stagedGoldenRun(t, mk())
	if !bytes.Equal(csv(stepped), csv(goldenRun(t, mk()))) {
		t.Fatal("manually stepped session diverged from Platform.Run")
	}
}
