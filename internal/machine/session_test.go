package machine

import (
	"testing"
)

func TestSessionStepMatchesRun(t *testing.T) {
	w := testWorkload(1e9)
	w.JitterPct = 0.05

	m1, err := New(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := m1.Run(w, nil)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m2.NewSession(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	stepped := s.Result()
	if stepped.Duration != whole.Duration || stepped.EnergyJ != whole.EnergyJ ||
		stepped.Instructions != whole.Instructions || len(stepped.Rows) != len(whole.Rows) {
		t.Errorf("stepped run differs from Run: %v/%g/%g/%d vs %v/%g/%g/%d",
			stepped.Duration, stepped.EnergyJ, stepped.Instructions, len(stepped.Rows),
			whole.Duration, whole.EnergyJ, whole.Instructions, len(whole.Rows))
	}
	// The final Step either records the last (possibly partial) row and
	// reports done, or observes exhaustion without producing a row.
	if steps != len(stepped.Rows) && steps != len(stepped.Rows)+1 {
		t.Errorf("steps = %d for %d rows", steps, len(stepped.Rows))
	}
}

func TestSessionAccessors(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	s, err := m.NewSession(testWorkload(3e8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Error("fresh session already done")
	}
	if _, ok := s.LastRow(); ok {
		t.Error("fresh session has a last row")
	}
	if s.Governor() != nil {
		t.Error("nil governor not preserved")
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	row, ok := s.LastRow()
	if !ok || row.FreqMHz != 2000 {
		t.Errorf("LastRow = %+v, %v", row, ok)
	}
	if s.Now() != row.Interval {
		t.Errorf("Now = %v, want %v", s.Now(), row.Interval)
	}
}

func TestSessionStepAfterDoneIsNoop(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	s, _ := m.NewSession(testWorkload(1e7), nil)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	rows := len(s.Result().Rows)
	done, err := s.Step()
	if err != nil || !done {
		t.Errorf("Step after done = %v, %v", done, err)
	}
	if len(s.Result().Rows) != rows {
		t.Error("Step after done appended rows")
	}
}

func TestSessionResultIdempotent(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	s, _ := m.NewSession(testWorkload(1e8), nil)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	a := s.Result()
	b := s.Result()
	if a != b {
		t.Error("Result not idempotent")
	}
}

func TestSessionInvalidWorkload(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	if _, err := m.NewSession(testWorkload(-1), nil); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestSessionEarlyResultTruncates(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	s, _ := m.NewSession(testWorkload(5e9), nil)
	for i := 0; i < 10; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	run := s.Result()
	if len(run.Rows) != 10 {
		t.Errorf("truncated run has %d rows", len(run.Rows))
	}
	if run.Duration != s.Now() {
		t.Errorf("duration %v != now %v", run.Duration, s.Now())
	}
}

// The session's stage totals fill only when stage timing is on, and
// timing alone (no subscriber) turns on the full event order, which
// does the timing.
func TestSessionStageNanos(t *testing.T) {
	for _, timed := range []bool{false, true} {
		m, _ := New(Config{Seed: 1})
		s, err := m.NewSession(testWorkload(2e8), nil)
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
		var total int64
		for _, n := range s.StageNanos() {
			total += n
		}
		if timed && (total <= 0 || s.b.Kind() != "generic") {
			t.Errorf("timing on: stage total %d ns with kind %s, want > 0 with generic", total, s.b.Kind())
		}
		if !timed && total != 0 {
			t.Errorf("timing off: stage total %d ns, want 0", total)
		}
	}
}
