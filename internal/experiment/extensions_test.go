package experiment

import (
	"strings"
	"testing"
)

func TestFeedbackExtensionReducesViolations(t *testing.T) {
	r, err := sharedCtx(t).FeedbackExtension()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("feedback rows = %d", len(r.Rows))
	}
	plain := r.Rows[0]
	if !strings.HasPrefix(plain.Policy, "PM(") {
		t.Fatalf("first row is %q, want plain PM", plain.Policy)
	}
	for _, fb := range r.Rows[1:] {
		if fb.OverFrac >= plain.OverFrac/2 {
			t.Errorf("%s over-limit %.1f%% not clearly below plain PM's %.1f%%",
				fb.Policy, fb.OverFrac*100, plain.OverFrac*100)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestThermalStudy(t *testing.T) {
	r, err := sharedCtx(t).ThermalStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("thermal rows = %d", len(r.Rows))
	}
	unmanaged, reactive, predictive := r.Rows[0], r.Rows[1], r.Rows[2]
	if unmanaged.OverFrac < 0.2 {
		t.Errorf("unmanaged run spent only %.1f%% over the limit; crafty should exceed it", unmanaged.OverFrac*100)
	}
	for _, managed := range []ThermalRow{reactive, predictive} {
		if managed.OverFrac > 0.02 {
			t.Errorf("%s spent %.1f%% over the limit", managed.Policy, managed.OverFrac*100)
		}
		if managed.NormPerf <= 0.8 || managed.NormPerf > 1.0+1e-9 {
			t.Errorf("%s performance %.3f implausible", managed.Policy, managed.NormPerf)
		}
	}
	// The predictive controller holds margin below the ceiling; the
	// reactive one rides it.
	if predictive.MaxC >= reactive.MaxC {
		t.Errorf("predictive max %.1f°C not below reactive %.1f°C", predictive.MaxC, reactive.MaxC)
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestDVFSBeatsThrottling(t *testing.T) {
	r, err := sharedCtx(t).DVFSvsThrottling()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("throttle rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// DVFS saves energy at every floor; throttling saves less — on
		// this platform it actually costs energy (same V·f, longer
		// runtime, idle draw during stopped clocks).
		if row.DVFSSave <= row.ThrottleSave {
			t.Errorf("%s@%.0f%%: DVFS save %.1f%% not above throttling %.1f%%",
				row.Workload, row.Floor*100, row.DVFSSave*100, row.ThrottleSave*100)
		}
		if row.DVFSSave <= 0 {
			t.Errorf("%s@%.0f%%: DVFS saved nothing", row.Workload, row.Floor*100)
		}
		// Throttling's loss tracks duty exactly (1 - floor-rounded
		// duty); DVFS loses no more than throttling on memory-bound
		// work.
		if row.Workload == "swim" && row.DVFSLoss >= row.ThrottleLoss {
			t.Errorf("swim: DVFS loss %.1f%% not below throttling %.1f%%",
				row.DVFSLoss*100, row.ThrottleLoss*100)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationStudy(t *testing.T) {
	r, err := sharedCtx(t).UtilizationStudy()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]UtilizationRow{}
	for _, row := range r.Rows {
		rows[row.Workload] = row
	}
	batch, ok := rows["batch"]
	if !ok {
		t.Fatalf("missing batch row: %+v", r.Rows)
	}
	// The paper's §IV-B critique: at full load, demand-based switching
	// saves nothing; PS still saves by trading explicit headroom.
	if batch.OnDemandSave > 0.02 {
		t.Errorf("ondemand saved %.1f%% at full load, want ~0", batch.OnDemandSave*100)
	}
	if batch.PSSave < 0.10 {
		t.Errorf("PS saved only %.1f%% at full load", batch.PSSave*100)
	}
	office, ok := rows["office"]
	if !ok {
		t.Fatal("missing office row")
	}
	if office.OnDemandSave < 0.20 {
		t.Errorf("ondemand saved only %.1f%% on the idle-heavy mix", office.OnDemandSave*100)
	}
	// PS dominates ondemand on every mix (it saves during both idle
	// and busy periods).
	for name, row := range rows {
		if row.PSSave < row.OnDemandSave-1e-9 {
			t.Errorf("%s: PS save %.1f%% below ondemand %.1f%%", name, row.PSSave*100, row.OnDemandSave*100)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadCharacterization(t *testing.T) {
	r, err := sharedCtx(t).WorkloadCharacterization()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 26 {
		t.Fatalf("characterization rows = %d", len(r.Rows))
	}
	rows := map[string]CharacterizationRow{}
	for _, row := range r.Rows {
		rows[row.Name] = row
	}
	// The paper's Fig 7 discussion: the memory-bound six show high DCU
	// occupancy and high memory requests; the core-bound five show low
	// rates of both.
	for _, n := range []string{"swim", "lucas", "equake", "mcf", "applu", "art"} {
		if !rows[n].MemBound {
			t.Errorf("%s not classified memory-bound", n)
		}
		if rows[n].DCU < 0.6 {
			t.Errorf("%s DCU occupancy %.2f too low for a memory-bound workload", n, rows[n].DCU)
		}
	}
	for _, n := range []string{"perlbmk", "mesa", "eon", "crafty", "sixtrack"} {
		if rows[n].MemBound {
			t.Errorf("%s classified memory-bound", n)
		}
		if rows[n].DCU > 0.3 {
			t.Errorf("%s DCU occupancy %.2f too high for a core-bound workload", n, rows[n].DCU)
		}
	}
	// crafty and perlbmk pair high decode rates with high L2 request
	// rates — the paper's explanation for their power.
	for _, n := range []string{"crafty", "perlbmk"} {
		if rows[n].DPC < 1.7 {
			t.Errorf("%s DPC %.2f, want high", n, rows[n].DPC)
		}
		if rows[n].L2PC < rows["sixtrack"].L2PC {
			t.Errorf("%s L2 rate below sixtrack's", n)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplexStudy(t *testing.T) {
	r, err := sharedCtx(t).MultiplexStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("mux rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Rotating two events through one counter at 10 ms granularity
		// must not break the floor or change outcomes materially —
		// the substance of the paper's "small number of counters"
		// feasibility claim.
		if row.FloorViolatedMux {
			t.Errorf("%s violated its floor under multiplexing (%.1f%%)", row.Workload, row.LossMux*100)
		}
		if d := row.LossMux - row.LossIdeal; d > 0.02 || d < -0.02 {
			t.Errorf("%s: multiplexing changed loss by %.1f points", row.Workload, d*100)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOfThreeMethodology(t *testing.T) {
	ctx3, err := NewContext(Options{Seed: 21, ScaleDown: 6, Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx3.RunStatic("gzip", 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: a second context reproduces the same median run.
	ctx3b, err := NewContext(Options{Seed: 21, ScaleDown: 6, Repeats: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx3b.RunStatic("gzip", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.MeasuredEnergyJ != b.MeasuredEnergyJ {
		t.Errorf("median-of-3 not deterministic: %v/%g vs %v/%g",
			a.Duration, a.MeasuredEnergyJ, b.Duration, b.MeasuredEnergyJ)
	}
	// The median differs from at least one single-seed run.
	ctx1, err := NewContext(Options{Seed: 21, ScaleDown: 6})
	if err != nil {
		t.Fatal(err)
	}
	single, err := ctx1.RunStatic("gzip", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if single.Duration <= 0 || a.Duration <= 0 {
		t.Fatal("degenerate runs")
	}
}

func TestSharedBudget(t *testing.T) {
	r, err := sharedCtx(t).SharedBudget()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Speedup <= 1.0 {
		t.Errorf("demand-aware speedup = %.3f, want > 1", r.Speedup)
	}
	if r.OverFracDyn > 0.05 || r.OverFracStatic > 0.05 {
		t.Errorf("budget violations: dyn %.1f%%, static %.1f%%", r.OverFracDyn*100, r.OverFracStatic*100)
	}
	// The power-hungry node is the main beneficiary.
	var crafty *SharedBudgetRow
	for i := range r.Rows {
		if r.Rows[i].Node == "crafty" {
			crafty = &r.Rows[i]
		}
	}
	if crafty == nil {
		t.Fatal("crafty row missing")
	}
	if crafty.DemandSec >= crafty.EqualSec {
		t.Errorf("crafty did not benefit: %.2fs vs %.2fs", crafty.DemandSec, crafty.EqualSec)
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestScorecardAllPass(t *testing.T) {
	sc, err := sharedCtx(t).PaperComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) < 12 {
		t.Fatalf("scorecard has only %d rows", len(sc.Rows))
	}
	for _, row := range sc.Rows {
		if !row.Pass {
			t.Errorf("claim not reproduced: %s (paper %.3f, measured %.3f, tol %.3f, note %q)",
				row.Claim, row.Paper, row.Measured, row.Tolerance, row.Note)
		}
	}
	var sb strings.Builder
	if err := sc.Print(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ALL CLAIMS REPRODUCED") {
		t.Error("scorecard verdict not positive")
	}
}

func TestSeedSensitivity(t *testing.T) {
	ctx, err := NewContext(Options{Seed: 7, ScaleDown: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := ctx.SeedSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 || len(r.Seeds) != 5 {
		t.Fatalf("seed result shape: %d rows, %d seeds", len(r.Rows), len(r.Seeds))
	}
	for _, row := range r.Rows {
		if len(row.Values) != 5 {
			t.Errorf("%s has %d values", row.Metric, len(row.Values))
		}
		// The headline numbers must be stable across seeds — tight
		// relative spread, not one lucky draw.
		if row.Mean <= 0 {
			t.Errorf("%s mean %.3f", row.Metric, row.Mean)
		}
		if row.Std > 0.25*row.Mean+0.01 {
			t.Errorf("%s unstable across seeds: mean %.3f std %.3f", row.Metric, row.Mean, row.Std)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestGuardbandSweep(t *testing.T) {
	r, err := sharedCtx(t).GuardbandSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.OverFrac) != len(r.Guardbands) || len(r.OverFrac[0]) != len(r.Limits) {
		t.Fatalf("sweep shape wrong")
	}
	// Averaged over the limits, larger guardbands reduce over-limit
	// time and cost performance — the trade the paper's 0.5 W sits on.
	avg := func(vs []float64) float64 {
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	overOff, overBig := avg(r.OverFrac[0]), avg(r.OverFrac[len(r.OverFrac)-1])
	if overBig >= overOff {
		t.Errorf("1.0W guardband over-limit %.3f not below disabled %.3f", overBig, overOff)
	}
	perfOff, perfBig := avg(r.NormPerf[0]), avg(r.NormPerf[len(r.NormPerf)-1])
	if perfBig >= perfOff {
		t.Errorf("1.0W guardband perf %.3f not below disabled %.3f", perfBig, perfOff)
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformSpecificity(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-platform training is slow; skipped with -short")
	}
	r, err := sharedCtx(t).PlatformSpecificity()
	if err != nil {
		t.Fatal(err)
	}
	// The published model degrades substantially off-platform and
	// retraining recovers it — §II's platform-specificity claim.
	if r.MAE755On738 < 2*r.MAE755On755 {
		t.Errorf("755 model on 738 MAE %.3f not clearly worse than on-platform %.3f",
			r.MAE755On738, r.MAE755On755)
	}
	if r.MAE738Retrained > r.MAE755On738/3 {
		t.Errorf("retraining left MAE %.3f vs cross-platform %.3f", r.MAE738Retrained, r.MAE755On738)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The low-voltage part needs smaller-or-equal alpha at every
		// shared frequency (dynamic power scales with V^2).
		if row.AlphaRetrained > row.Alpha755*1.05 {
			t.Errorf("%d MHz: retrained alpha %.3f above 755's %.3f", row.FreqMHz, row.AlphaRetrained, row.Alpha755)
		}
	}
	var sb strings.Builder
	if err := r.Print(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Describe == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if names[e.Name] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"fig1", "fig11", "table4", "scorecard", "sharedbudget", "platform"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	// Smoke-run a cheap entry through the registry interface.
	ctx, err := NewContext(Options{Seed: 3, ScaleDown: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Registry() {
		if e.Name != "fig2" {
			continue
		}
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.Print(&sb); err != nil {
			t.Fatal(err)
		}
	}
}
