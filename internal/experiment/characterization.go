package experiment

import (
	"fmt"
	"io"

	"aapm/internal/control"
	"aapm/internal/counters"
	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/trace"
)

// CharacterizationResult is the per-benchmark counter-rate table
// behind the paper's Figure 7 discussion: DCU miss-outstanding,
// resource stalls, L2 requests and memory requests per cycle at 2 GHz,
// which explain each workload's frequency sensitivity and power.
type CharacterizationResult struct {
	Rows []CharacterizationRow
}

// CharacterizationRow is one benchmark's counter rates.
type CharacterizationRow struct {
	Name string
	// Per-cycle rates at 2 GHz.
	DPC, IPC, DCU, StallPC, L2PC, MemPC float64
	// DCUPerInst is the eq. 3 classification measure; MemBound is its
	// verdict at the published threshold.
	DCUPerInst float64
	MemBound   bool
	MeanW      float64
}

// WorkloadCharacterization tabulates the counter rates of every suite
// benchmark at 2 GHz.
func (c *Context) WorkloadCharacterization() (*CharacterizationResult, error) {
	names := c.SuiteNames()
	runs, err := c.runSet(withRows, names, c.staticSpec(2000))
	if err != nil {
		return nil, err
	}
	res := &CharacterizationResult{}
	for i, n := range names {
		run := runs[0][i]
		row := CharacterizationRow{
			Name:       n,
			DPC:        avgRow(run, func(r trace.Row) float64 { return r.DPC }),
			IPC:        avgRow(run, func(r trace.Row) float64 { return r.IPC }),
			DCU:        avgRow(run, func(r trace.Row) float64 { return r.DCU }),
			L2PC:       avgRow(run, func(r trace.Row) float64 { return r.L2PC }),
			MemPC:      avgRow(run, func(r trace.Row) float64 { return r.MemPC }),
			DCUPerInst: runDCUPerInst(run),
			MeanW:      meanMeasured(run),
		}
		row.MemBound = row.DCUPerInst >= model.PaperDCUThreshold
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the characterization table.
func (r *CharacterizationResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Workload characterization at 2 GHz (per-cycle counter rates, §IV-A.2 discussion)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %6s %6s %6s %7s %7s %7s %6s %7s\n",
		"benchmark", "DPC", "IPC", "DCU", "L2PC", "MemPC", "DCU/I", "class", "mean W")
	for _, row := range r.Rows {
		class := "core"
		if row.MemBound {
			class = "mem"
		}
		fmt.Fprintf(w, "%-10s %6.3f %6.3f %6.3f %7.4f %7.4f %7.2f %6s %7.2f\n",
			row.Name, row.DPC, row.IPC, row.DCU, row.L2PC, row.MemPC, row.DCUPerInst, class, row.MeanW)
	}
	return nil
}

// MuxResult quantifies the cost of realistic counter scarcity: PS
// driven through a two-counter PMU that must rotate its events versus
// ideal full-width monitoring.
type MuxResult struct {
	Rows []MuxRow
}

// MuxRow compares ideal vs multiplexed monitoring for one workload.
type MuxRow struct {
	Workload string
	// Loss* and Save* are perf loss / energy savings vs 2 GHz.
	LossIdeal, SaveIdeal float64
	LossMux, SaveMux     float64
	FloorViolatedMux     bool
}

// MultiplexStudy runs PS(80%) on phase-alternating and steady
// workloads with a deliberately starved single-counter PMU (retired
// instructions and DCU stalls rotate), measuring what event staleness
// costs.
func (c *Context) MultiplexStudy() (*MuxResult, error) {
	names := []string{"ammp", "swim", "crafty"}
	runs, err := c.runSet(totalsOnly, names, c.staticSpec(2000), psSpec(0.8, model.PaperExponent))
	if err != nil {
		return nil, err
	}
	res := &MuxResult{}
	for i, name := range names {
		base, ideal := runs[0][i], runs[1][i]
		w, err := c.Workload(name)
		if err != nil {
			return nil, err
		}
		inner, err := control.NewPowerSave(control.PSConfig{Floor: 0.8})
		if err != nil {
			return nil, err
		}
		gov, err := control.NewMultiplexed(inner, 1, []counters.Event{
			counters.InstRetired, counters.DCUMissOutstanding,
		})
		if err != nil {
			return nil, err
		}
		mux, err := c.runUncached(machine.Config{}, w, gov, totalsOnly)
		if err != nil {
			return nil, err
		}
		row := MuxRow{
			Workload:  name,
			LossIdeal: 1 - base.Duration.Seconds()/ideal.Duration.Seconds(),
			SaveIdeal: 1 - ideal.MeasuredEnergyJ/base.MeasuredEnergyJ,
			LossMux:   1 - base.Duration.Seconds()/mux.Duration.Seconds(),
			SaveMux:   1 - mux.MeasuredEnergyJ/base.MeasuredEnergyJ,
		}
		row.FloorViolatedMux = row.LossMux > 0.20+0.01
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the multiplexing comparison.
func (r *MuxResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "PS(80%) with ideal vs single-counter multiplexed monitoring"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s | %10s %10s | %10s %10s %8s\n",
		"workload", "loss", "save", "mux loss", "mux save", "violates")
	for _, row := range r.Rows {
		v := ""
		if row.FloorViolatedMux {
			v = "YES"
		}
		fmt.Fprintf(w, "%-8s | %9.1f%% %9.1f%% | %9.1f%% %9.1f%% %8s\n",
			row.Workload, row.LossIdeal*100, row.SaveIdeal*100,
			row.LossMux*100, row.SaveMux*100, v)
	}
	return nil
}
