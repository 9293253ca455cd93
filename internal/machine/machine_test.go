package machine

import (
	"math"
	"testing"
	"time"

	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/trace"
)

func testWorkload(instr float64) phase.Workload {
	return phase.Workload{
		Name: "test",
		Phases: []phase.Params{{
			Name: "p", Instructions: instr,
			CPICore: 0.5, L2APKI: 10, MemAPKI: 1, MLP: 2, SpecFactor: 1.2, StallFrac: 0.05,
		}},
	}
}

func TestNewConfigResolution(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Table().Len() != 8 || m.Table().Max().FreqMHz != 2000 {
		t.Errorf("default table wrong: %v", m.Table().States())
	}
	if m.SamplePeriod() != 10*time.Millisecond {
		t.Errorf("default sample period = %v", m.SamplePeriod())
	}
	if _, err := New(Config{StartFreqMHz: 1700}); err == nil {
		t.Error("unknown start frequency accepted")
	}
	if _, err := New(Config{SamplePeriod: -time.Second}); err == nil {
		t.Error("negative sample period accepted")
	}
	if _, err := New(Config{Chain: sensor.Chain{NoiseStdW: -1}}); err == nil {
		t.Error("invalid chain accepted")
	}
	if _, err := New(Config{MaxTicks: math.MaxInt32 + 1}); err == nil {
		t.Error("MaxTicks beyond the 32-bit tick counter accepted")
	}
	if _, err := New(Config{Table: pstate.PentiumM755()}); err != nil {
		t.Errorf("table-only config rejected: %v", err)
	}
}

func TestRunCompletesWorkload(t *testing.T) {
	m, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(2e9)
	run, err := m.Run(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(run.Instructions-2e9)/2e9 > 0.01 {
		t.Errorf("retired %g instructions, want ~2e9", run.Instructions)
	}
	// At 2 GHz with CPI ~ 0.912 (0.5 + 0.05 l2 + 0.362... computed by
	// the model), duration = instr*CPI/f; just check a plausible band.
	if run.Duration < 500*time.Millisecond || run.Duration > 2*time.Second {
		t.Errorf("duration = %v", run.Duration)
	}
	if run.EnergyJ <= 0 {
		t.Error("no energy recorded")
	}
	if len(run.Rows) == 0 {
		t.Fatal("no trace rows")
	}
	if run.Rows[0].FreqMHz != 2000 {
		t.Errorf("first interval at %d MHz, want 2000 (default start)", run.Rows[0].FreqMHz)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	w := testWorkload(5e8)
	w.JitterPct = 0.05
	run1 := mustRun(t, Config{Seed: 9, Chain: sensor.NIDefault()}, w, nil)
	run2 := mustRun(t, Config{Seed: 9, Chain: sensor.NIDefault()}, w, nil)
	if run1.Duration != run2.Duration || run1.EnergyJ != run2.EnergyJ {
		t.Errorf("same seed differs: %v/%g vs %v/%g", run1.Duration, run1.EnergyJ, run2.Duration, run2.EnergyJ)
	}
	run3 := mustRun(t, Config{Seed: 10, Chain: sensor.NIDefault()}, w, nil)
	if run1.EnergyJ == run3.EnergyJ {
		t.Error("different seeds produced identical measured energy")
	}
}

func mustRun(t *testing.T, cfg Config, w phase.Workload, g Governor) *trace.Run {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(w, g)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestEnergyIntegratesPower(t *testing.T) {
	m, _ := New(Config{Seed: 3})
	run, err := m.Run(testWorkload(1e9), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range run.Rows {
		sum += r.TruePowerW * r.Interval.Seconds()
	}
	if math.Abs(sum-run.EnergyJ)/run.EnergyJ > 1e-9 {
		t.Errorf("row-integrated energy %g != EnergyJ %g", sum, run.EnergyJ)
	}
}

// fixedGov pins a given index from the first tick.
type fixedGov struct{ idx int }

func (g *fixedGov) Name() string                              { return "fixed" }
func (g *fixedGov) Tick(*TickInfo) (int, []trace.Degradation) { return g.idx, nil }
func (g *fixedGov) InitialIndex(int) int                      { return g.idx }

func TestGovernorInitialIndexHonored(t *testing.T) {
	m, _ := New(Config{Seed: 1})
	run, err := m.Run(testWorkload(5e8), &fixedGov{idx: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range run.Rows {
		if r.FreqMHz != 600 {
			t.Fatalf("row %d at %d MHz, want 600 for all rows", i, r.FreqMHz)
		}
	}
	if run.Transitions != 0 {
		t.Errorf("transitions = %d, want 0", run.Transitions)
	}
}

// flipGov alternates between min and max every tick.
type flipGov struct{ n int }

func (g *flipGov) Name() string { return "flip" }
func (g *flipGov) Tick(info *TickInfo) (int, []trace.Degradation) {
	g.n++
	if g.n%2 == 0 {
		return 0, nil
	}
	return info.Table.Len() - 1, nil
}

func TestTransitionsCountedAndStallApplied(t *testing.T) {
	m, _ := New(Config{Seed: 1, TransitionLatency: 1 * time.Millisecond})
	run, err := m.Run(testWorkload(1e9), &flipGov{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Transitions < 10 {
		t.Errorf("transitions = %d, want many", run.Transitions)
	}
	// Stalls lengthen the run versus a stall-free flip schedule.
	m2, _ := New(Config{Seed: 1, TransitionLatency: 0})
	run2, err := m2.Run(testWorkload(1e9), &flipGov{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Duration <= run2.Duration {
		t.Errorf("stalls did not lengthen run: %v vs %v", run.Duration, run2.Duration)
	}
}

func TestJitterPairedAcrossPolicies(t *testing.T) {
	// The same seed+workload must present identical jitter regardless
	// of governor, so measured DPC of the first interval matches.
	w := testWorkload(2e9)
	w.JitterPct = 0.1
	a := mustRun(t, Config{Seed: 5}, w, nil)
	b := mustRun(t, Config{Seed: 5}, w, &fixedGov{idx: 7})
	if a.Rows[0].DPC != b.Rows[0].DPC {
		t.Errorf("first-interval DPC differs across policies: %g vs %g", a.Rows[0].DPC, b.Rows[0].DPC)
	}
}

func TestIdlePhases(t *testing.T) {
	w := phase.Workload{
		Name: "idleful",
		Phases: []phase.Params{
			{Name: "work", Instructions: 2e8, CPICore: 0.5, MLP: 1, SpecFactor: 1.1},
			{Name: "idle", IdleDuration: 200 * time.Millisecond},
		},
	}
	m, _ := New(Config{Seed: 1})
	run, err := m.Run(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The idle stretch runs at gated power: some intervals must be far
	// below the active ones.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range run.Rows {
		lo = math.Min(lo, r.TruePowerW)
		hi = math.Max(hi, r.TruePowerW)
	}
	if lo > 0.7*hi {
		t.Errorf("idle power %g not clearly below active %g", lo, hi)
	}
	if run.Duration < 250*time.Millisecond {
		t.Errorf("duration %v too short to include idle", run.Duration)
	}
}

func TestInvalidWorkloadRejected(t *testing.T) {
	m, _ := New(Config{})
	if _, err := m.Run(phase.Workload{Name: "empty"}, nil); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestMaxTicksGuard(t *testing.T) {
	m, err := New(Config{Seed: 1, MaxTicks: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(testWorkload(1e12), nil); err == nil {
		t.Error("run exceeding MaxTicks did not error")
	}
}

func TestTruthAndTableMismatch(t *testing.T) {
	tab := pstate.PentiumM755()
	m, err := New(Config{Table: tab})
	if err != nil {
		t.Fatal(err)
	}
	other := pstate.PentiumM755()
	if _, err := New(Config{Table: other, Truth: m.Truth()}); err == nil {
		t.Error("table differing from truth's table accepted")
	}
}
