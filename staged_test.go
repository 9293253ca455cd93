package aapm

// A Session stepped by hand, with hooks subscribed and stage timing
// on, must reproduce the same pinned fixtures as Platform.Run. The
// test names keep the "staged" prefix of the per-stage engine these
// checks were first written against; Session now steps a one-lane
// batch with the full event order on.

import (
	"bytes"
	"testing"
)

// stagedGoldenRun steps a Session over the canonical fixture
// configuration with an inert subscriber and stage timing enabled —
// everything that must NOT perturb the trace.
func stagedGoldenRun(t *testing.T, gov Governor) (*Run, *Session) {
	t.Helper()
	m, w := goldenPlatform(t)
	s, err := m.NewSession(w, gov)
	if err != nil {
		t.Fatal(err)
	}
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
	return s.Result(), s
}

// stageTotal sums the session's per-stage wall-clock.
func stageTotal(s *Session) int64 {
	var total int64
	for _, n := range s.StageNanos() {
		total += n
	}
	return total
}

func TestStagedEngineMatchesGoldenPM(t *testing.T) {
	if *update {
		t.Skip("fixture owned by TestGoldenPMTrace")
	}
	pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if err != nil {
		t.Fatal(err)
	}
	run, s := stagedGoldenRun(t, pm)
	checkGolden(t, "golden_pm_ammp.csv", run)
	if run.Ticks != len(run.Rows) {
		t.Errorf("run counted %d ticks, trace has %d rows", run.Ticks, len(run.Rows))
	}
	if stageTotal(s) <= 0 {
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
	run, _ := stagedGoldenRun(t, ps)
	checkGolden(t, "golden_ps_ammp.csv", run)
	if run.Ticks != len(run.Rows) {
		t.Errorf("run counted %d ticks, trace has %d rows", run.Ticks, len(run.Rows))
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
