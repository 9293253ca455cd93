package model

import (
	"math"
	"testing"
	"testing/quick"

	"aapm/internal/pstate"
	"aapm/internal/stats"
)

func TestPaperPowerModelMatchesTableII(t *testing.T) {
	m := PaperPowerModel()
	want := map[int][2]float64{
		600: {0.34, 2.58}, 800: {0.54, 3.56}, 1000: {0.77, 4.49},
		1200: {1.06, 5.60}, 1400: {1.42, 6.95}, 1600: {1.82, 8.44},
		1800: {2.36, 10.18}, 2000: {2.93, 12.11},
	}
	for i := 0; i < m.Table().Len(); i++ {
		f := m.Table().At(i).FreqMHz
		c := m.Coefficients(i)
		if c.Alpha != want[f][0] || c.Beta != want[f][1] {
			t.Errorf("%d MHz: (%g, %g), want %v", f, c.Alpha, c.Beta, want[f])
		}
	}
}

func TestEstimate(t *testing.T) {
	m := PaperPowerModel()
	i2000 := m.Table().IndexOf(2000)
	// FMA-256KB's DPC ~1.93 at the 2 GHz line should land near the
	// paper's 17.78 W measured value.
	got := m.Estimate(i2000, 1.935)
	if math.Abs(got-17.78) > 0.15 {
		t.Errorf("Estimate(2000, 1.935) = %g, want ~17.78", got)
	}
}

func TestNewPowerModelLengthCheck(t *testing.T) {
	tab := pstate.PentiumM755()
	if _, err := NewPowerModel(tab, make([]stats.Linear, 3)); err == nil {
		t.Error("mismatched fit count accepted")
	}
}

func TestProjectDPC(t *testing.T) {
	// Lowering frequency scales DPC up by f/f' (conservative for
	// memory-bound work).
	if got := ProjectDPC(1.0, 2000, 1000); got != 2.0 {
		t.Errorf("down-projection = %g, want 2.0", got)
	}
	// Raising frequency keeps DPC.
	if got := ProjectDPC(1.0, 1000, 2000); got != 1.0 {
		t.Errorf("up-projection = %g, want 1.0", got)
	}
	if got := ProjectDPC(1.3, 1800, 1800); got != 1.3 {
		t.Errorf("same-frequency projection = %g, want 1.3", got)
	}
}

func TestEstimateAtUsesProjection(t *testing.T) {
	m := PaperPowerModel()
	i600 := m.Table().IndexOf(600)
	// Observed DPC 0.6 at 1200 MHz -> projected 1.2 at 600 MHz.
	got := m.EstimateAt(i600, 0.6, 1200)
	want := 0.34*1.2 + 2.58
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimateAt = %g, want %g", got, want)
	}
}

func TestPerfModelClassification(t *testing.T) {
	m := PaperPerfModel()
	if m.Threshold != 1.21 || m.Exponent != 0.81 {
		t.Fatalf("paper model = %+v", m)
	}
	if m.MemoryBound(1.20) {
		t.Error("1.20 classified memory-bound")
	}
	if !m.MemoryBound(1.21) {
		t.Error("1.21 classified core-bound")
	}
	if PaperExponentAlt != 0.59 {
		t.Errorf("alt exponent = %g", PaperExponentAlt)
	}
}

func TestProjectIPC(t *testing.T) {
	m := PaperPerfModel()
	// Core-bound: IPC unchanged.
	if got := m.ProjectIPC(1.5, 0.2, 2000, 600); got != 1.5 {
		t.Errorf("core projection = %g, want unchanged", got)
	}
	// Memory-bound lowering frequency: IPC rises by (f/f')^0.81.
	got := m.ProjectIPC(0.2, 3.0, 2000, 1000)
	want := 0.2 * math.Pow(2.0, 0.81)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("memory projection = %g, want %g", got, want)
	}
	// Zero IPC passes through.
	if got := m.ProjectIPC(0, 3.0, 2000, 1000); got != 0 {
		t.Errorf("zero-IPC projection = %g", got)
	}
}

func TestProjectPerfDirections(t *testing.T) {
	m := PaperPerfModel()
	// Memory-bound: relative performance at half frequency is
	// (1/2)^(1-0.81) ~ 0.877 of peak.
	p1000 := m.ProjectPerf(0.2, 3.0, 2000, 1000)
	p2000 := m.ProjectPerf(0.2, 3.0, 2000, 2000)
	rel := p1000 / p2000
	want := math.Pow(0.5, 1-0.81)
	if math.Abs(rel-want) > 1e-9 {
		t.Errorf("memory relative perf = %g, want %g", rel, want)
	}
	// Core-bound: relative performance is f'/f.
	c1000 := m.ProjectPerf(1.5, 0.1, 2000, 1000)
	c2000 := m.ProjectPerf(1.5, 0.1, 2000, 2000)
	if math.Abs(c1000/c2000-0.5) > 1e-12 {
		t.Errorf("core relative perf = %g, want 0.5", c1000/c2000)
	}
}

func TestPerfModelValidate(t *testing.T) {
	if err := PaperPerfModel().Validate(); err != nil {
		t.Errorf("paper model invalid: %v", err)
	}
	bad := []PerfModel{
		{Threshold: 0, Exponent: 0.8},
		{Threshold: 1.2, Exponent: 0},
		{Threshold: 1.2, Exponent: 2},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}

// Property: memory-bound projection is monotone — lower target
// frequency never lowers projected IPC.
func TestProjectIPCMonotone(t *testing.T) {
	m := PaperPerfModel()
	f := func(ipc8 uint8, f1, f2 uint16) bool {
		ipc := 0.1 + float64(ipc8)/256
		a := int(f1)%1900 + 100
		b := int(f2)%1900 + 100
		if a > b {
			a, b = b, a
		}
		// From 2000, project to the lower and higher of a,b.
		lo := m.ProjectIPC(ipc, 2.0, 2000, a)
		hi := m.ProjectIPC(ipc, 2.0, 2000, b)
		return lo >= hi-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitPowerModelRecoversSyntheticTruth(t *testing.T) {
	tab := pstate.PentiumM755()
	truth := PaperPowerModel()
	var pts []TrainingPoint
	for i := 0; i < tab.Len(); i++ {
		for _, dpc := range []float64{0.1, 0.5, 1.0, 1.5, 2.0} {
			pts = append(pts, TrainingPoint{
				Config:      "synthetic",
				PStateIndex: i,
				FreqMHz:     tab.At(i).FreqMHz,
				DPC:         dpc,
				PowerW:      truth.Estimate(i, dpc),
			})
		}
	}
	fit, err := FitPowerModel(tab, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.Len(); i++ {
		got := fit.Coefficients(i)
		want := truth.Coefficients(i)
		if math.Abs(got.Alpha-want.Alpha) > 1e-6 || math.Abs(got.Beta-want.Beta) > 1e-6 {
			t.Errorf("p-state %d: fit %v, want %v", i, got, want)
		}
	}
}

func TestFitPowerModelErrors(t *testing.T) {
	tab := pstate.PentiumM755()
	if _, err := FitPowerModel(tab, nil); err == nil {
		t.Error("empty training data accepted")
	}
	pts := []TrainingPoint{{PStateIndex: 0, DPC: 1, PowerW: 3}}
	if _, err := FitPowerModel(tab, pts); err == nil {
		t.Error("single-state data accepted for 8-state table")
	}
}

func TestFitPerfModelRecoversKnownExponent(t *testing.T) {
	tab := pstate.PentiumM755()
	const (
		trueExp = 0.70
		trueTh  = 1.0
	)
	gen := PerfModel{Threshold: trueTh, Exponent: trueExp}
	var pts []TrainingPoint
	// Two synthetic configs: one core-bound (IPC constant), one
	// memory-bound following the exact power law.
	for i := 0; i < tab.Len(); i++ {
		f := tab.At(i).FreqMHz
		pts = append(pts, TrainingPoint{
			Config: "core", PStateIndex: i, FreqMHz: f,
			IPC: 1.4, DCUPerInst: 0.2,
		})
		pts = append(pts, TrainingPoint{
			Config: "mem", PStateIndex: i, FreqMHz: f,
			IPC:        gen.ProjectIPC(0.3, 3.0, 2000, f),
			DCUPerInst: 3.0,
		})
	}
	fit, err := FitPerfModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Best.Exponent-trueExp) > 0.015 {
		t.Errorf("fitted exponent = %g, want ~%g", fit.Best.Exponent, trueExp)
	}
	if fit.Best.Threshold <= 0.2 || fit.Best.Threshold > 3.0 {
		t.Errorf("fitted threshold = %g out of range", fit.Best.Threshold)
	}
	if fit.MeanAbsRelErr > 0.01 {
		t.Errorf("training error = %g, want ~0", fit.MeanAbsRelErr)
	}
}

func TestFitPerfModelEmpty(t *testing.T) {
	if _, err := FitPerfModel(nil); err == nil {
		t.Error("empty training data accepted")
	}
}
