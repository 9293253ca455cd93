package machine

import (
	"testing"

	"aapm/internal/phase"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

func mustRunOn(t *testing.T, m *Machine, w phase.Workload, g Governor) *trace.Run {
	t.Helper()
	run, err := m.Run(w, g)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// throttleGov pins max frequency at a fixed duty cycle.
type throttleGov struct{ duty float64 }

func (g *throttleGov) Name() string { return "throttle" }
func (g *throttleGov) Tick(info *TickInfo) (int, []trace.Degradation) {
	return info.Table.Len() - 1, nil
}
func (g *throttleGov) Duty() float64          { return g.duty }
func (g *throttleGov) InitialIndex(d int) int { return d }

func TestThrottlingScalesRuntimeAndPower(t *testing.T) {
	w := testWorkload(2e9)
	full := mustRun(t, Config{Seed: 4}, w, nil)
	half := mustRun(t, Config{Seed: 4}, w, &throttleGov{duty: 0.5})

	// Delivered cycles halve: runtime ~doubles (first interval runs at
	// full duty before the governor is consulted).
	ratio := half.Duration.Seconds() / full.Duration.Seconds()
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("duty-0.5 runtime ratio = %.2f, want ~2", ratio)
	}
	// Average power drops toward (active+idle)/2 but stays well above
	// half of full power (no voltage scaling).
	if half.AvgPowerW() >= full.AvgPowerW() {
		t.Error("throttling did not reduce power")
	}
	if half.AvgPowerW() < 0.5*full.AvgPowerW() {
		t.Errorf("throttled power %.2fW implausibly low vs %.2fW", half.AvgPowerW(), full.AvgPowerW())
	}
	// Energy goes UP: same work, similar dynamic energy, plus idle
	// draw over the stretched runtime.
	if half.EnergyJ <= full.EnergyJ {
		t.Errorf("throttled energy %.1fJ not above full-speed %.1fJ", half.EnergyJ, full.EnergyJ)
	}
	// Duty recorded in the trace.
	if half.Rows[len(half.Rows)-1].Duty != 0.5 {
		t.Errorf("trace duty = %g, want 0.5", half.Rows[len(half.Rows)-1].Duty)
	}
}

func TestThrottleDutyClamped(t *testing.T) {
	w := testWorkload(5e8)
	run := mustRun(t, Config{Seed: 4}, w, &throttleGov{duty: -3})
	// Clamped to 0.05, not zero (which would deadlock).
	if d := run.Rows[len(run.Rows)-1].Duty; d != 0.05 {
		t.Errorf("clamped duty = %g, want 0.05", d)
	}
	run2 := mustRun(t, Config{Seed: 4}, w, &throttleGov{duty: 7})
	if d := run2.Rows[len(run2.Rows)-1].Duty; d != 1 {
		t.Errorf("clamped duty = %g, want 1", d)
	}
}

func TestThermalModelIntegration(t *testing.T) {
	tc := thermal.PentiumMThermal()
	m, err := New(Config{Seed: 2, Thermal: &tc})
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(testWorkload(6e9), nil)
	if err != nil {
		t.Fatal(err)
	}
	temps := run.Temps()
	if temps[0] < tc.AmbientC {
		t.Errorf("first temp %.1f below ambient", temps[0])
	}
	// Temperature rises monotonically toward the steady state for this
	// constant-power workload.
	last := temps[len(temps)-1]
	if last <= temps[0] {
		t.Errorf("temperature did not rise: %.1f -> %.1f", temps[0], last)
	}
	steady := tc.SteadyC(run.AvgPowerW())
	if last > steady+1 {
		t.Errorf("final temp %.1f overshoots steady %.1f", last, steady)
	}
	// Without a thermal model, TempC stays zero.
	m2, _ := New(Config{Seed: 2})
	run2, err := m2.Run(testWorkload(5e8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range run2.Rows {
		if r.TempC != 0 {
			t.Fatal("TempC nonzero without thermal model")
		}
	}
}

func TestInvalidThermalConfigRejected(t *testing.T) {
	bad := thermal.Config{AmbientC: 45, ResistanceCW: -1, CapacitanceJC: 2}
	if _, err := New(Config{Thermal: &bad}); err == nil {
		t.Error("invalid thermal config accepted")
	}
}

func TestThermalSensorTracksPowerChanges(t *testing.T) {
	tc := thermal.PentiumMThermal()
	m, err := New(Config{Seed: 2, Thermal: &tc})
	if err != nil {
		t.Fatal(err)
	}
	hot := mustRunOn(t, m, testWorkload(4e9), nil)
	cold := func() float64 {
		m2, _ := New(Config{Seed: 2, Thermal: &tc})
		run := mustRunOn(t, m2, testWorkload(4e9), &fixedGov{idx: 0})
		return run.Temps()[len(run.Rows)-1]
	}()
	hotEnd := hot.Temps()[len(hot.Rows)-1]
	if hotEnd <= cold {
		t.Errorf("2 GHz end temp %.1f not above 600 MHz end temp %.1f", hotEnd, cold)
	}
}
