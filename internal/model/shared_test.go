package model_test

import (
	"sync"
	"testing"

	"aapm/internal/control"
	"aapm/internal/model"
	"aapm/internal/paperref"
)

// TestPaperPowerModelShared pins that the published model is built
// once and shared: every call — repeated or concurrent — returns the
// same immutable value, that value still carries Table II, and a PM
// built on it allocates only its own small handle, so a per-node model
// cannot creep back into fleet construction.
func TestPaperPowerModelShared(t *testing.T) {
	m := model.PaperPowerModel()
	if model.PaperPowerModel() != m {
		t.Fatal("repeated calls return different models")
	}

	const goroutines = 8
	got := make([]*model.PowerModel, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = model.PaperPowerModel()
		}()
	}
	wg.Wait()
	for g, p := range got {
		if p != m {
			t.Errorf("goroutine %d got a different model", g)
		}
	}

	if m.Table().Len() != len(paperref.TableII) {
		t.Fatalf("model has %d p-states, Table II %d", m.Table().Len(), len(paperref.TableII))
	}
	for i, r := range paperref.TableII {
		if f := m.Table().At(i).FreqMHz; f != r.FreqMHz {
			t.Errorf("p-state %d is %d MHz, Table II row is %d MHz", i, f, r.FreqMHz)
		}
		if c := m.Coefficients(i); c.Alpha != r.Alpha || c.Beta != r.Beta {
			t.Errorf("%d MHz: alpha/beta %g/%g, Table II %g/%g", r.FreqMHz, c.Alpha, c.Beta, r.Alpha, r.Beta)
		}
	}

	// The PM handle plus, at most, its policy; the model (table,
	// fits) costs nothing per PM.
	const maxAllocs = 2
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 13.5}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("NewPerformanceMaximizer allocates %.1f objects, want <= %d", allocs, maxAllocs)
	}
}
