package experiment

// Extension studies beyond the paper's evaluation section: the
// measured-power feedback idea §IV-A.2 sketches, a thermal-envelope
// controller in the spirit of the Foxton work the paper cites, the
// DVFS-vs-clock-throttling comparison from the companion technical
// report [20], and the utilization study behind §IV-B's critique of
// demand-based switching.

import (
	"fmt"
	"io"
	"time"

	"aapm/internal/cluster"
	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/mixes"
	"aapm/internal/model"
	"aapm/internal/stats"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// FeedbackResult compares plain PM with the measured-power feedback
// extension on the workload and limit where the static model fails
// (galgel at 13.5 W).
type FeedbackResult struct {
	Limit float64
	Rows  []FeedbackRow
}

// FeedbackRow is one policy variant's outcome.
type FeedbackRow struct {
	Policy   string
	OverFrac float64
	// NormPerf is performance relative to unconstrained 2 GHz.
	NormPerf float64
	AvgW     float64
}

// FeedbackExtension evaluates PM with and without measured-power
// feedback on galgel across feedback gains.
func (c *Context) FeedbackExtension() (*FeedbackResult, error) {
	const limit = 13.5
	w, err := c.Workload("galgel")
	if err != nil {
		return nil, err
	}
	base, err := c.run(totalsOnly, "galgel", c.staticSpec(2000))
	if err != nil {
		return nil, err
	}
	res := &FeedbackResult{Limit: limit}
	for _, gain := range []float64{0, 0.1, 0.3} {
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limit, FeedbackGain: gain})
		if err != nil {
			return nil, err
		}
		run, err := c.runUncached(machine.Config{}, w, pm, withRows)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FeedbackRow{
			Policy:   pm.Name(),
			OverFrac: trace.FractionAbove(run.MeasuredPowers(), limit),
			NormPerf: base.Duration.Seconds() / run.Duration.Seconds(),
			AvgW:     run.AvgPowerW(),
		})
	}
	return res, nil
}

// Print writes the feedback comparison.
func (r *FeedbackResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Measured-power feedback extension (galgel, %.1f W limit; paper §IV-A.2 future work)\n", r.Limit); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %12s %10s %8s\n", "policy", "%time over", "norm perf", "avg W")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %11.1f%% %10.3f %8.2f\n", row.Policy, row.OverFrac*100, row.NormPerf, row.AvgW)
	}
	return nil
}

// ThermalResult compares thermal-management strategies on the suite's
// hottest workload.
type ThermalResult struct {
	LimitC float64
	Rows   []ThermalRow
}

// ThermalRow is one strategy's outcome.
type ThermalRow struct {
	Policy string
	// OverFrac is the fraction of run-time the die spent above LimitC.
	OverFrac float64
	MaxC     float64
	// NormPerf is performance relative to unmanaged 2 GHz.
	NormPerf float64
}

// ThermalStudy runs crafty (the highest-power workload) against a
// 75 °C envelope that unconstrained 2 GHz operation slightly exceeds,
// comparing no management, reactive stepping, and the predictive
// headroom-budget controller.
func (c *Context) ThermalStudy() (*ThermalResult, error) {
	const limitC = 75
	tc := thermal.PentiumMThermal()
	w, err := c.Workload("crafty")
	if err != nil {
		return nil, err
	}
	reactive, err := control.NewThermalGuard(control.ThermalGuardConfig{LimitC: limitC, Thermal: tc, Reactive: true})
	if err != nil {
		return nil, err
	}
	predictive, err := control.NewThermalGuard(control.ThermalGuardConfig{LimitC: limitC, Thermal: tc})
	if err != nil {
		return nil, err
	}
	res := &ThermalResult{LimitC: limitC}
	var baseDur time.Duration
	for i, g := range []machine.Governor{nil, reactive, predictive} {
		run, err := c.runUncached(machine.Config{Thermal: &tc}, w, g, withRows)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseDur = run.Duration
		}
		name := "unmanaged-2GHz"
		if g != nil {
			name = g.Name()
		}
		temps := run.Temps()
		res.Rows = append(res.Rows, ThermalRow{
			Policy:   name,
			OverFrac: trace.FractionAbove(temps, limitC),
			MaxC:     stats.Max(temps),
			NormPerf: baseDur.Seconds() / run.Duration.Seconds(),
		})
	}
	return res, nil
}

// Print writes the thermal comparison.
func (r *ThermalResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Thermal envelope study (crafty, %.0f °C limit)\n", r.LimitC); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %12s %8s %10s\n", "policy", "%time over", "max °C", "norm perf")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %11.1f%% %8.2f %10.3f\n", row.Policy, row.OverFrac*100, row.MaxC, row.NormPerf)
	}
	return nil
}

// ThrottleResult compares DVFS (PowerSave) against ACPI T-state clock
// modulation (ThrottleSave) at matched performance floors.
type ThrottleResult struct {
	Rows []ThrottleRow
}

// ThrottleRow is one (workload, floor) comparison.
type ThrottleRow struct {
	Workload string
	Floor    float64
	// DVFS* and Throttle* report measured loss and savings for the
	// two mechanisms.
	DVFSLoss, DVFSSave         float64
	ThrottleLoss, ThrottleSave float64
}

// DVFSvsThrottling runs three representative workloads at two floors
// under both mechanisms. DVFS saves disproportionately because voltage
// drops with frequency (eq. 1); throttling saves roughly linearly at
// best.
func (c *Context) DVFSvsThrottling() (*ThrottleResult, error) {
	names := []string{"swim", "gap", "crafty"}
	floors := []float64{0.75, 0.50}
	specs := []runSpec{c.staticSpec(2000)}
	for _, f := range floors {
		specs = append(specs, psSpec(f, model.PaperExponent))
	}
	runs, err := c.runSet(totalsOnly, names, specs...)
	if err != nil {
		return nil, err
	}
	res := &ThrottleResult{}
	for i, name := range names {
		base := runs[0][i]
		w, err := c.Workload(name)
		if err != nil {
			return nil, err
		}
		for j, floor := range floors {
			ps := runs[1+j][i]
			th, err := control.NewThrottleSave(control.ThrottleSaveConfig{Floor: floor})
			if err != nil {
				return nil, err
			}
			tr, err := c.runUncached(machine.Config{}, w, th, totalsOnly)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, ThrottleRow{
				Workload:     name,
				Floor:        floor,
				DVFSLoss:     1 - base.Duration.Seconds()/ps.Duration.Seconds(),
				DVFSSave:     1 - ps.MeasuredEnergyJ/base.MeasuredEnergyJ,
				ThrottleLoss: 1 - base.Duration.Seconds()/tr.Duration.Seconds(),
				ThrottleSave: 1 - tr.MeasuredEnergyJ/base.MeasuredEnergyJ,
			})
		}
	}
	return res, nil
}

// Print writes the mechanism comparison.
func (r *ThrottleResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "DVFS (PowerSave) vs clock throttling (T-states) at matched floors"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %6s | %10s %10s | %10s %10s\n",
		"workload", "floor", "dvfs loss", "dvfs save", "thr loss", "thr save")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %5.0f%% | %9.1f%% %9.1f%% | %9.1f%% %9.1f%%\n",
			row.Workload, row.Floor*100,
			row.DVFSLoss*100, row.DVFSSave*100,
			row.ThrottleLoss*100, row.ThrottleSave*100)
	}
	return nil
}

// UtilizationResult contrasts governors across the utilization axis.
type UtilizationResult struct {
	Rows []UtilizationRow
}

// UtilizationRow is one workload mix's outcome per governor.
type UtilizationRow struct {
	Workload string
	// Savings relative to static 2 GHz for each policy.
	OnDemandSave float64
	PSSave       float64
	// Losses in total completion time relative to static 2 GHz.
	OnDemandLoss float64
	PSLoss       float64
}

// UtilizationStudy runs the interactive/server/batch mixes under an
// ondemand-style governor and PS(80%). At 100% load ondemand saves
// nothing (the paper's critique of demand-based switching); PS keeps
// saving because it trades explicit performance headroom.
func (c *Context) UtilizationStudy() (*UtilizationResult, error) {
	res := &UtilizationResult{}
	for _, w := range mixes.All() {
		base, err := c.runUncached(machine.Config{}, w, control.NewStaticClock(c.table.Len()-1, "static2000"), totalsOnly)
		if err != nil {
			return nil, err
		}
		od, err := c.runUncached(machine.Config{}, w, &control.OnDemand{}, totalsOnly)
		if err != nil {
			return nil, err
		}
		psGov, err := control.NewPowerSave(control.PSConfig{Floor: 0.8})
		if err != nil {
			return nil, err
		}
		ps, err := c.runUncached(machine.Config{}, w, psGov, totalsOnly)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, UtilizationRow{
			Workload:     w.Name,
			OnDemandSave: 1 - od.MeasuredEnergyJ/base.MeasuredEnergyJ,
			PSSave:       1 - ps.MeasuredEnergyJ/base.MeasuredEnergyJ,
			OnDemandLoss: 1 - base.Duration.Seconds()/od.Duration.Seconds(),
			PSLoss:       1 - base.Duration.Seconds()/ps.Duration.Seconds(),
		})
	}
	return res, nil
}

// Print writes the utilization comparison.
func (r *UtilizationResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Governors across the utilization axis (savings/loss vs static 2 GHz)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s | %12s %12s | %12s %12s\n",
		"mix", "od save", "od loss", "PS80 save", "PS80 loss")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s | %11.1f%% %11.1f%% | %11.1f%% %11.1f%%\n",
			row.Workload,
			row.OnDemandSave*100, row.OnDemandLoss*100,
			row.PSSave*100, row.PSLoss*100)
	}
	return nil
}

// BaselineResult compares the counter-driven governors at suite level:
// the related-work baselines (ondemand/DBS, Process-Cruise-Control)
// against PowerSave.
type BaselineResult struct {
	Rows []BaselineRow
}

// BaselineRow is one governor's suite-level outcome.
type BaselineRow struct {
	Policy string
	// Loss and Save are total-time performance reduction and
	// measured-energy savings vs static 2 GHz over the full suite.
	Loss, Save float64
}

// BaselineComparison runs the full suite under each governor.
func (c *Context) BaselineComparison() (*BaselineResult, error) {
	ondemand := runSpec{"ondemand", func() (machine.Governor, error) { return &control.OnDemand{}, nil }}
	cruise := func(key string, slowdown float64) runSpec {
		return runSpec{key, func() (machine.Governor, error) {
			return control.NewCruiseControl(control.CruiseControlConfig{Slowdown: slowdown})
		}}
	}
	runs, err := c.runSet(totalsOnly, c.SuiteNames(), c.staticSpec(2000),
		ondemand, cruise("cruise10", 0.10), cruise("cruise20", 0.20), psSpec(0.8, model.PaperExponent))
	if err != nil {
		return nil, err
	}
	baseT, baseE := suiteTime(runs[0]).Seconds(), suiteEnergy(runs[0])
	res := &BaselineResult{}
	for i, label := range []string{"ondemand", "cruise10", "cruise20", "PS(80%)"} {
		res.Rows = append(res.Rows, BaselineRow{
			Policy: label,
			Loss:   1 - baseT/suiteTime(runs[1+i]).Seconds(),
			Save:   1 - suiteEnergy(runs[1+i])/baseE,
		})
	}
	return res, nil
}

// Print writes the suite-level governor comparison.
func (r *BaselineResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Counter-driven governors over the full SPEC suite (vs static 2 GHz)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %10s\n", "policy", "perf loss", "save")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %9.1f%% %9.1f%%\n", row.Policy, row.Loss*100, row.Save*100)
	}
	return nil
}

// SharedBudgetResult is the closed-loop shared-budget co-simulation:
// four machines under one cap, equal split vs demand-aware
// reallocation (the paper's motivating deployment (i) for PM).
type SharedBudgetResult struct {
	BudgetW float64
	Rows    []SharedBudgetRow
	// Speedup is equal-split machine-seconds over demand-aware.
	Speedup float64
	// OverFracDyn/OverFracStatic are budget-violation interval
	// fractions for the two modes.
	OverFracDyn, OverFracStatic float64
}

// SharedBudgetRow is one node's completion times under both modes.
type SharedBudgetRow struct {
	Node                string
	EqualSec, DemandSec float64
}

// SharedBudget runs the co-simulation both ways. The two modes run
// concurrently through the context's bounded parallelism, and each
// coordinator steps its nodes across the cluster worker pool — the
// same sharding, one level up.
func (c *Context) SharedBudget() (*SharedBudgetResult, error) {
	const budget = 56.0
	mk := func(static bool) (*cluster.Result, error) {
		var ns []cluster.Node
		for _, name := range []string{"swim", "mcf", "lucas", "crafty"} {
			w, err := c.Workload(name)
			if err != nil {
				return nil, err
			}
			ns = append(ns, cluster.Node{Workload: w})
		}
		return cluster.Run(cluster.Config{
			BudgetW: budget,
			Nodes:   ns,
			Seed:    c.opts.Seed,
			Chain:   c.chain,
			Static:  static,
			Workers: c.opts.Parallelism,
		})
	}
	results := make([]*cluster.Result, 2)
	if err := c.forEachN(2, func(i int) error {
		r, err := mk(i == 1)
		results[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	dyn, st := results[0], results[1]
	res := &SharedBudgetResult{
		BudgetW:        budget,
		Speedup:        st.MachineSeconds / dyn.MachineSeconds,
		OverFracDyn:    dyn.OverFrac,
		OverFracStatic: st.OverFrac,
	}
	for i := range dyn.Runs {
		res.Rows = append(res.Rows, SharedBudgetRow{
			Node:      dyn.Names[i],
			EqualSec:  st.Runs[i].Duration.Seconds(),
			DemandSec: dyn.Runs[i].Duration.Seconds(),
		})
	}
	return res, nil
}

// Print writes the shared-budget comparison. It prints only virtual
// time and power, so its output is fixed by the seed.
func (r *SharedBudgetResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Shared %.0f W budget across four machines: equal vs demand-aware PM limits\n", r.BudgetW); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-8s %12s %12s\n", "node", "equal (s)", "demand (s)"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-8s %12.2f %12.2f\n", row.Node, row.EqualSec, row.DemandSec); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "demand-aware completes the set %.1f%% faster; budget exceeded %.1f%% (dyn) / %.1f%% (equal) of intervals\n",
		(r.Speedup-1)*100, r.OverFracDyn*100, r.OverFracStatic*100)
	return err
}
