package experiment

import (
	"fmt"
	"io"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/trace"
)

// FaultRates are the per-interval fault rates the robustness sweep
// evaluates; 0 is the clean reference point.
func FaultRates() []float64 { return []float64{0, 0.01, 0.02, 0.05, 0.10} }

// FaultRow compares a naive governor against its degradation-enabled
// variant at one fault rate. Both run on the identical seed, so they
// observe the same environment fault timeline.
type FaultRow struct {
	Rate float64
	// Viol is the governor's limit metric: for PM, the fraction of
	// intervals whose TRUE power exceeds the limit; for PS, the
	// shortfall below the performance floor (0 when the floor holds).
	NaiveViol, DegradedViol float64
	// Perf is performance relative to the clean unconstrained run.
	NaivePerf, DegradedPerf float64
	// Events is the run's total degradation-log entries (injected
	// faults plus governor responses).
	NaiveEvents, DegradedEvents int
}

// FaultSweepResult is the robustness experiment: how the PM and PS
// governors hold their guarantees as fault rates rise, with and
// without graceful degradation.
type FaultSweepResult struct {
	PMWorkload string
	LimitW     float64
	PM         []FaultRow

	PSWorkload string
	Floor      float64
	PS         []FaultRow
}

// runFaulted executes workload under the factory's governor on a fresh
// machine with the given fault plan. Faulted runs are not cached: the
// run cache keys don't encode plans, and the sweep visits each
// configuration once.
func (c *Context) runFaulted(workload string, plan faults.Plan, f govFactory) (*trace.Run, error) {
	w, err := c.Workload(workload)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{Chain: c.chain, Seed: c.opts.Seed, Faults: &plan})
	if err != nil {
		return nil, err
	}
	g, err := f()
	if err != nil {
		return nil, err
	}
	return m.Run(w, g)
}

// FaultSweep sweeps fault rates over the hardest PM workload (galgel
// at 13.5 W under sensor dropout) and a memory-bound PS workload (art
// at the 80% floor under counter misses), comparing each naive
// governor to its degradation-enabled variant at identical seeds.
// Violations are judged against ground-truth power — faults corrupt
// only what governors observe.
func (c *Context) FaultSweep() (*FaultSweepResult, error) {
	const (
		pmWorkload = "galgel"
		limitW     = 13.5
		psWorkload = "art"
		floor      = 0.8
	)
	res := &FaultSweepResult{
		PMWorkload: pmWorkload, LimitW: limitW,
		PSWorkload: psWorkload, Floor: floor,
		PM: make([]FaultRow, len(FaultRates())),
		PS: make([]FaultRow, len(FaultRates())),
	}
	pmBase, err := c.staticRun(pmWorkload, 2000, totalsOnly)
	if err != nil {
		return nil, err
	}
	psBase, err := c.staticRun(psWorkload, 2000, totalsOnly)
	if err != nil {
		return nil, err
	}
	pmGov := func(degrade bool) govFactory {
		return func() (machine.Governor, error) {
			return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, Degrade: degrade})
		}
	}
	psGov := func(degrade bool) govFactory {
		return func() (machine.Governor, error) {
			return control.NewPowerSave(control.PSConfig{Floor: floor, Degrade: degrade})
		}
	}
	rates := FaultRates()
	err = c.forEachN(len(rates), func(i int) error {
		rate := rates[i]
		// PM: sensor dropout episodes hide measured power from the
		// governor while it keeps controlling near the limit.
		pmPlan := faults.Plan{Sensor: faults.SensorPlan{DropoutProb: rate, DropoutTicks: 10}}
		// PS: missed counter reads starve the performance projection.
		psPlan := faults.Plan{Counter: faults.CounterPlan{MissProb: rate}}

		row := FaultRow{Rate: rate}
		for _, v := range []struct {
			degrade bool
			viol    *float64
			perf    *float64
			events  *int
		}{
			{false, &row.NaiveViol, &row.NaivePerf, &row.NaiveEvents},
			{true, &row.DegradedViol, &row.DegradedPerf, &row.DegradedEvents},
		} {
			run, err := c.runFaulted(pmWorkload, pmPlan, pmGov(v.degrade))
			if err != nil {
				return err
			}
			*v.viol = trace.FractionAbove(run.TruePowers(), limitW)
			*v.perf = run.Instructions / run.Duration.Seconds() /
				(pmBase.Instructions / pmBase.Duration.Seconds())
			*v.events = run.DegradationTotal()
		}
		res.PM[i] = row

		row = FaultRow{Rate: rate}
		for _, v := range []struct {
			degrade bool
			viol    *float64
			perf    *float64
			events  *int
		}{
			{false, &row.NaiveViol, &row.NaivePerf, &row.NaiveEvents},
			{true, &row.DegradedViol, &row.DegradedPerf, &row.DegradedEvents},
		} {
			run, err := c.runFaulted(psWorkload, psPlan, psGov(v.degrade))
			if err != nil {
				return err
			}
			perf := run.Instructions / run.Duration.Seconds() /
				(psBase.Instructions / psBase.Duration.Seconds())
			*v.perf = perf
			if short := floor - perf; short > 0 {
				*v.viol = short
			}
			*v.events = run.DegradationTotal()
		}
		res.PS[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print writes the two robustness tables.
func (r *FaultSweepResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Governor robustness under injected faults (naive vs degraded, identical seeds)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "PM on %s at %.1f W, sensor-dropout plan; violation = true power over limit\n", r.PMWorkload, r.LimitW)
	fmt.Fprintf(w, "%6s %12s %12s %11s %11s %9s %9s\n",
		"rate", "naive viol", "degr viol", "naive perf", "degr perf", "naive ev", "degr ev")
	for _, row := range r.PM {
		fmt.Fprintf(w, "%5.0f%% %11.2f%% %11.2f%% %10.1f%% %10.1f%% %9d %9d\n",
			row.Rate*100, row.NaiveViol*100, row.DegradedViol*100,
			row.NaivePerf*100, row.DegradedPerf*100, row.NaiveEvents, row.DegradedEvents)
	}
	fmt.Fprintf(w, "PS on %s at the %.0f%% floor, counter-miss plan; violation = shortfall below floor\n", r.PSWorkload, r.Floor*100)
	fmt.Fprintf(w, "%6s %12s %12s %11s %11s %9s %9s\n",
		"rate", "naive viol", "degr viol", "naive perf", "degr perf", "naive ev", "degr ev")
	for _, row := range r.PS {
		fmt.Fprintf(w, "%5.0f%% %11.2f%% %11.2f%% %10.1f%% %10.1f%% %9d %9d\n",
			row.Rate*100, row.NaiveViol*100, row.DegradedViol*100,
			row.NaivePerf*100, row.DegradedPerf*100, row.NaiveEvents, row.DegradedEvents)
	}
	return nil
}
