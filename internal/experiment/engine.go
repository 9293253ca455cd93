package experiment

import (
	"fmt"
	"io"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/model"
)

// EngineRow is one policy's aggregated engine counters on the probe
// workload.
type EngineRow struct {
	Policy            string
	Ticks             int
	Transitions       int
	FailedTransitions int
	StallMs           float64
	EnergyJ           float64
	AvgPowerW         float64
	Violations        int
	Degradations      int
}

// EngineMetricsResult reports the tick engine's per-run counters —
// the totals each run carries — for the probe workload under the
// paper's three canonical policies.
type EngineMetricsResult struct {
	Workload string
	LimitW   float64
	Rows     []EngineRow
}

// Print renders the counters table.
func (r *EngineMetricsResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Engine metrics on %s (run totals; PM limit %.1f W):\n", r.Workload, r.LimitW); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s %7s %6s %6s %9s %9s %7s %6s %6s\n",
		"policy", "ticks", "trans", "fail", "stall-ms", "energy-J", "avg-W", "viol", "degr"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-14s %7d %6d %6d %9.1f %9.1f %7.2f %6d %6d\n",
			row.Policy, row.Ticks, row.Transitions, row.FailedTransitions,
			row.StallMs, row.EnergyJ, row.AvgPowerW, row.Violations, row.Degradations); err != nil {
			return err
		}
	}
	return nil
}

// EngineMetrics runs the probe workload under unconstrained, PM and PS
// policies and reports the counters the tick engine totals into each
// run: ticks, transitions, stall time, energy and degradations, plus
// the intervals over the PM limit.
func (c *Context) EngineMetrics() (*EngineMetricsResult, error) {
	const workload = "ammp"
	const limitW = 14.5
	w, err := c.Workload(workload)
	if err != nil {
		return nil, err
	}
	res := &EngineMetricsResult{Workload: workload, LimitW: limitW}
	type policy struct {
		name   string
		limitW float64 // violation threshold; 0 = off
		mk     func() (machine.Governor, error)
	}
	policies := []policy{
		{"unconstrained", 0, func() (machine.Governor, error) { return nil, nil }},
		{fmt.Sprintf("pm%.1f", limitW), limitW, func() (machine.Governor, error) {
			return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW})
		}},
		{"ps0.80", 0, func() (machine.Governor, error) {
			return control.NewPowerSave(control.PSConfig{
				Floor: 0.8,
				Perf:  model.PerfModel{Threshold: model.PaperDCUThreshold, Exponent: model.PaperExponent},
			})
		}},
	}
	for _, p := range policies {
		g, err := p.mk()
		if err != nil {
			return nil, err
		}
		run, err := c.runUncached(machine.Config{}, w, g, withRows)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, EngineRow{
			Policy:            p.name,
			Ticks:             run.Ticks,
			Transitions:       run.Transitions,
			FailedTransitions: run.FailedTransitions,
			StallMs:           float64(run.StallTime) / float64(time.Millisecond),
			EnergyJ:           run.EnergyJ,
			AvgPowerW:         run.AvgPowerW(),
			Violations:        run.IntervalsOver(p.limitW),
			Degradations:      run.DegradationTotal(),
		})
	}
	return res, nil
}
