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

// record sets the naive or the degraded variant's outcome.
func (r *FaultRow) record(degraded bool, viol, perf float64, events int) {
	if degraded {
		r.DegradedViol, r.DegradedPerf, r.DegradedEvents = viol, perf, events
	} else {
		r.NaiveViol, r.NaivePerf, r.NaiveEvents = viol, perf, events
	}
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
	base, err := c.runSet(totalsOnly, []string{pmWorkload, psWorkload}, c.staticSpec(2000))
	if err != nil {
		return nil, err
	}
	pmBase, psBase := base[0][0], base[0][1]
	pmW, err := c.Workload(pmWorkload)
	if err != nil {
		return nil, err
	}
	psW, err := c.Workload(psWorkload)
	if err != nil {
		return nil, err
	}
	// relPerf is a run's instruction rate relative to its clean base.
	relPerf := func(run, base *trace.Run) float64 {
		return run.Instructions / run.Duration.Seconds() / (base.Instructions / base.Duration.Seconds())
	}
	// Faulted runs bypass the run cache, whose keys do not encode fault
	// plans; the sweep visits each configuration once.
	rates := FaultRates()
	err = c.forEachN(len(rates), func(i int) error {
		rate := rates[i]
		// PM: sensor dropout episodes hide measured power from the
		// governor while it keeps controlling near the limit.
		pmPlan := faults.Plan{Sensor: faults.SensorPlan{DropoutProb: rate, DropoutTicks: 10}}
		// PS: missed counter reads starve the performance projection.
		psPlan := faults.Plan{Counter: faults.CounterPlan{MissProb: rate}}
		res.PM[i].Rate, res.PS[i].Rate = rate, rate
		for _, degrade := range []bool{false, true} {
			pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, Degrade: degrade})
			if err != nil {
				return err
			}
			pmRun, err := c.runUncached(machine.Config{Faults: &pmPlan}, pmW, pm, withRows)
			if err != nil {
				return err
			}
			ps, err := control.NewPowerSave(control.PSConfig{Floor: floor, Degrade: degrade})
			if err != nil {
				return err
			}
			psRun, err := c.runUncached(machine.Config{Faults: &psPlan}, psW, ps, totalsOnly)
			if err != nil {
				return err
			}
			res.PM[i].record(degrade, trace.FractionAbove(pmRun.TruePowers(), limitW),
				relPerf(pmRun, pmBase), pmRun.DegradationTotal())
			psPerf := relPerf(psRun, psBase)
			res.PS[i].record(degrade, max(floor-psPerf, 0), psPerf, psRun.DegradationTotal())
		}
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
