package control

import (
	"testing"

	"aapm/internal/machine"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/trace"
)

func TestNewPhaseAwarePMValidation(t *testing.T) {
	if _, err := NewPhaseAwarePM(nil, 0, 0); err == nil {
		t.Error("nil PM accepted")
	}
	pm, _ := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
	if _, err := NewPhaseAwarePM(pm, 1, 0); err == nil {
		t.Error("window 1 accepted")
	}
	pa, err := NewPhaseAwarePM(pm, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Name() != "PM(14.5W)+phase" {
		t.Errorf("Name = %q", pa.Name())
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

// TestPhaseAwareRecoversFasterOnAmmp compares time spent at the top
// feasible frequency after ammp's hot->cool phase boundaries.
func TestPhaseAwareRecoversFasterOnAmmp(t *testing.T) {
	w, err := spec.ByName("ammp")
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations = max(1, w.Repeats()/3)

	run := func(phaseAware bool) *trace.Run {
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := NewPerformanceMaximizer(PMConfig{LimitW: 14.5})
		if err != nil {
			t.Fatal(err)
		}
		var gov machine.Governor = pm
		if phaseAware {
			pa, err := NewPhaseAwarePM(pm, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			gov = pa
		}
		r, err := m.Run(w, gov)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	plain := run(false)
	aware := run(true)
	// ammp's memory phases allow 2000 MHz under the 14.5 W limit; the
	// phase-aware variant reaches it sooner after each boundary, so its
	// 2000 MHz residency must be at least the plain PM's.
	res2000 := func(r *trace.Run) float64 {
		var hi, tot float64
		for _, row := range r.Rows {
			tot += row.Interval.Seconds()
			if row.FreqMHz == 2000 {
				hi += row.Interval.Seconds()
			}
		}
		return hi / tot
	}
	if res2000(aware) < res2000(plain) {
		t.Errorf("phase-aware 2000 MHz residency %.3f below plain %.3f", res2000(aware), res2000(plain))
	}
	if aware.Duration > plain.Duration {
		t.Errorf("phase-aware run slower: %v vs %v", aware.Duration, plain.Duration)
	}
}
