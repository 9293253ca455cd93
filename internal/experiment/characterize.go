package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"aapm/internal/machine"
	"aapm/internal/mloops"
	"aapm/internal/model"
	"aapm/internal/paperref"
	"aapm/internal/phase"
	"aapm/internal/stats"
	"aapm/internal/trace"
)

// Fig1Result is the power-variation study: per-benchmark power at a
// fixed 2 GHz (Figure 1).
type Fig1Result struct {
	// Rows hold one summary per benchmark, suite order.
	Rows []Fig1Row
	// SuiteMinW/SuiteMaxW span every 10 ms sample of the suite.
	SuiteMinW, SuiteMaxW float64
	// PeakW is the highest individual sample (the proxy for peak
	// operating power); RangeFrac is (max-min)/peak, the paper's
	// ">35% of peak" headline.
	PeakW     float64
	RangeFrac float64
	// MaxSampleBench is the benchmark with the highest single sample
	// (galgel in the paper).
	MaxSampleBench string
}

// Fig1Row summarizes one benchmark's 2 GHz power samples.
type Fig1Row struct {
	Name                 string
	MeanW, MinW, MaxW    float64
	StdW                 float64
	AvgIPC, AvgDPC, DCUI float64
}

// Fig1PowerVariation runs the whole suite at 2000 MHz and summarizes
// the measured 10 ms power samples.
func (c *Context) Fig1PowerVariation() (*Fig1Result, error) {
	names := c.SuiteNames()
	if err := c.forEach(names, func(n string) error {
		_, err := c.RunStatic(n, 2000)
		return err
	}); err != nil {
		return nil, err
	}
	res := &Fig1Result{}
	first := true
	for _, n := range names {
		run, err := c.RunStatic(n, 2000)
		if err != nil {
			return nil, err
		}
		ps := run.MeasuredPowers()
		s := stats.Summarize(ps)
		row := Fig1Row{
			Name: n, MeanW: s.Mean, MinW: s.Min, MaxW: s.Max, StdW: s.Std,
			AvgIPC: avgRow(run, func(r trace.Row) float64 { return r.IPC }),
			AvgDPC: avgRow(run, func(r trace.Row) float64 { return r.DPC }),
			DCUI:   runDCUPerInst(run),
		}
		res.Rows = append(res.Rows, row)
		if first || s.Min < res.SuiteMinW {
			res.SuiteMinW = s.Min
		}
		if first || s.Max > res.SuiteMaxW {
			res.SuiteMaxW = s.Max
			res.MaxSampleBench = n
		}
		first = false
	}
	res.PeakW = res.SuiteMaxW
	if res.PeakW > 0 {
		res.RangeFrac = (res.SuiteMaxW - res.SuiteMinW) / res.PeakW
	}
	return res, nil
}

// Print writes the Figure 1 table.
func (r *Fig1Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 1: SPEC CPU2000 power at 2 GHz (measured 10 ms samples)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %7s %7s %7s\n",
		"benchmark", "mean(W)", "min(W)", "max(W)", "std(W)", "IPC", "DPC", "DCU/I")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %8.2f %8.2f %8.2f %8.2f %7.3f %7.3f %7.2f\n",
			row.Name, row.MeanW, row.MinW, row.MaxW, row.StdW, row.AvgIPC, row.AvgDPC, row.DCUI)
	}
	_, err := fmt.Fprintf(w, "suite range: %.2f..%.2f W; span %.1f%% of peak %.2f W (highest sample: %s)\n",
		r.SuiteMinW, r.SuiteMaxW, r.RangeFrac*100, r.PeakW, r.MaxSampleBench)
	return err
}

// Fig2Result is the p-state performance-impact study (Figure 2):
// execution time relative to 2000 MHz for three representative
// workloads across 1600/1800/2000 MHz.
type Fig2Result struct {
	Freqs []int
	Rows  []Fig2Row
}

// Fig2Row is one workload's relative performance per frequency.
type Fig2Row struct {
	Name string
	// RelPerf[i] is perf(freq[i]) / perf(2000).
	RelPerf []float64
}

// Fig2Workloads are the paper's three examples spanning the spectrum.
func Fig2Workloads() []string { return []string{"swim", "gap", "sixtrack"} }

// Fig2PstatePerformance measures relative performance across the three
// highest p-states.
func (c *Context) Fig2PstatePerformance() (*Fig2Result, error) {
	freqs := []int{1600, 1800, 2000}
	names := Fig2Workloads()
	type key struct {
		name string
		freq int
	}
	var pairs []key
	for _, n := range names {
		for _, f := range freqs {
			pairs = append(pairs, key{n, f})
		}
	}
	if err := c.forEachN(len(pairs), func(i int) error {
		_, err := c.RunStatic(pairs[i].name, pairs[i].freq)
		return err
	}); err != nil {
		return nil, err
	}
	res := &Fig2Result{Freqs: freqs}
	for _, n := range names {
		base, err := c.RunStatic(n, 2000)
		if err != nil {
			return nil, err
		}
		row := Fig2Row{Name: n}
		for _, f := range freqs {
			run, err := c.RunStatic(n, f)
			if err != nil {
				return nil, err
			}
			row.RelPerf = append(row.RelPerf, base.Duration.Seconds()/run.Duration.Seconds())
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes the Figure 2 table.
func (r *Fig2Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 2: performance relative to 2000 MHz\n%-10s", "benchmark"); err != nil {
		return err
	}
	for _, f := range r.Freqs {
		fmt.Fprintf(w, " %8d", f)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s", row.Name)
		for _, p := range row.RelPerf {
			fmt.Fprintf(w, " %8.3f", p)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// TableIResult is the MS-Loops characterization (Table I's loops with
// their simulated memory-hierarchy profiles).
type TableIResult struct {
	Rows []TableIRow
}

// TableIRow is one loop/footprint configuration.
type TableIRow struct {
	Config      string
	Description string
	CPICore     float64
	L2APKI      float64
	MemAPKI     float64
	MemBPI      float64
	IPC2G       float64
	DPC2G       float64
	DCUI2G      float64
}

// TableIMicrobenchmarks characterizes the 12 training configurations.
func (c *Context) TableIMicrobenchmarks() (*TableIResult, error) {
	params, err := mloops.TrainingSet()
	if err != nil {
		return nil, err
	}
	ps2000, err := c.table.ByFreq(2000)
	if err != nil {
		return nil, err
	}
	res := &TableIResult{}
	cfgs := mloops.Configs()
	for i, p := range params {
		b := p.At(ps2000)
		res.Rows = append(res.Rows, TableIRow{
			Config:      p.Name,
			Description: cfgs[i].Loop.Description(),
			CPICore:     p.CPICore,
			L2APKI:      p.L2APKI,
			MemAPKI:     p.MemAPKI,
			MemBPI:      p.MemBPI,
			IPC2G:       b.IPC,
			DPC2G:       b.DPC,
			DCUI2G:      b.DCU / b.IPC,
		})
	}
	return res, nil
}

// Print writes the Table I characterization.
func (r *TableIResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table I: MS-Loops training set (simulated hierarchy characterization)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %8s %8s %8s %8s %7s %7s %7s\n",
		"config", "CPIcore", "L2APKI", "MemAPKI", "MemBPI", "IPC@2G", "DPC@2G", "DCU/I")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-17s %8.3f %8.1f %8.2f %8.2f %7.3f %7.3f %7.2f\n",
			row.Config, row.CPICore, row.L2APKI, row.MemAPKI, row.MemBPI, row.IPC2G, row.DPC2G, row.DCUI2G)
	}
	return nil
}

// TableIIResult compares the trained per-p-state power model with the
// paper's published Table II.
type TableIIResult struct {
	Rows []TableIIRow
	// Fit diagnostics on the training set.
	MeanAbsErrW float64
	// PerfFit is the companion eq. 3 parameter fit.
	PerfFit model.PerfFit
}

// TableIIRow is one p-state's fitted vs published coefficients.
type TableIIRow struct {
	FreqMHz                  int
	VoltageV                 float64
	Alpha, Beta              float64
	PaperAlpha, PaperBeta    float64
	AlphaErrPct, BetaErrPct  float64
	TrainPoints              int
	TrainMeanAbsErrW         float64
	TrainMaxAbsErrW          float64
	TrainMinDPC, TrainMaxDPC float64
}

// trainingInstructions bounds each training run; long enough for tens
// of samples at the slowest p-state.
const trainingInstructions = 3e8

// TableIIPowerModel regenerates the power and performance model
// parameters from the MS-Loops training set.
func (c *Context) TableIIPowerModel() (*TableIIResult, error) {
	set, err := mloops.TrainingSet()
	if err != nil {
		return nil, err
	}
	points, err := model.CollectTrainingData(machine.Config{
		Chain: c.chain,
		Seed:  c.opts.Seed,
	}, set, trainingInstructions)
	if err != nil {
		return nil, err
	}
	fitted, err := model.FitPowerModel(c.table, points)
	if err != nil {
		return nil, err
	}
	perfFit, err := model.FitPerfModel(points)
	if err != nil {
		return nil, err
	}
	paper := model.PaperPowerModel()
	res := &TableIIResult{PerfFit: perfFit}
	var totErr float64
	var totN int
	for i := 0; i < c.table.Len(); i++ {
		st := c.table.At(i)
		f := fitted.Coefficients(i)
		p := paper.Coefficients(i)
		row := TableIIRow{
			FreqMHz: st.FreqMHz, VoltageV: st.VoltageV,
			Alpha: f.Alpha, Beta: f.Beta,
			PaperAlpha: p.Alpha, PaperBeta: p.Beta,
			AlphaErrPct: 100 * (f.Alpha - p.Alpha) / p.Alpha,
			BetaErrPct:  100 * (f.Beta - p.Beta) / p.Beta,
			TrainMinDPC: 1e18, TrainMaxDPC: -1e18,
		}
		for _, pt := range points {
			if pt.PStateIndex != i {
				continue
			}
			row.TrainPoints++
			e := pt.PowerW - f.Eval(pt.DPC)
			if e < 0 {
				e = -e
			}
			row.TrainMeanAbsErrW += e
			if e > row.TrainMaxAbsErrW {
				row.TrainMaxAbsErrW = e
			}
			if pt.DPC < row.TrainMinDPC {
				row.TrainMinDPC = pt.DPC
			}
			if pt.DPC > row.TrainMaxDPC {
				row.TrainMaxDPC = pt.DPC
			}
			totErr += e
			totN++
		}
		if row.TrainPoints > 0 {
			row.TrainMeanAbsErrW /= float64(row.TrainPoints)
		}
		res.Rows = append(res.Rows, row)
	}
	if totN > 0 {
		res.MeanAbsErrW = totErr / float64(totN)
	}
	return res, nil
}

// Print writes the fitted-vs-published Table II.
func (r *TableIIResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table II: DPC power model per p-state (fitted on MS-Loops vs published)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%5s %7s | %7s %7s | %7s %7s | %7s %7s | %6s %8s\n",
		"MHz", "V", "alpha", "beta", "a.paper", "b.paper", "aerr%", "berr%", "points", "mae(W)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d %7.3f | %7.3f %7.3f | %7.2f %7.2f | %+6.1f%% %+6.1f%% | %6d %8.3f\n",
			row.FreqMHz, row.VoltageV, row.Alpha, row.Beta,
			row.PaperAlpha, row.PaperBeta, row.AlphaErrPct, row.BetaErrPct,
			row.TrainPoints, row.TrainMeanAbsErrW)
	}
	fmt.Fprintf(w, "overall training MAE: %.3f W\n", r.MeanAbsErrW)
	fmt.Fprintf(w, "eq.3 fit: threshold=%.2f exponent=%.2f (paper: %.2f / %.2f, alt %.2f); mean |rel err| %.3f; exponent minima %v\n",
		r.PerfFit.Best.Threshold, r.PerfFit.Best.Exponent,
		model.PaperDCUThreshold, model.PaperExponent, model.PaperExponentAlt,
		r.PerfFit.MeanAbsRelErr, r.PerfFit.ExponentMinima)
	return nil
}

// TableIIIResult is the worst-case workload power per p-state.
type TableIIIResult struct {
	Rows []TableIIIRow
}

// TableIIIRow is FMA-256KB's measured power at one frequency.
type TableIIIRow struct {
	FreqMHz   int
	PowerW    float64
	PaperW    float64
	DeltaPct  float64
	HavePaper bool
}

// TableIIIWorstCase measures FMA-256KB power at every p-state. The
// result is computed once per context (Table IV, Fig 6 and Fig 7 all
// depend on it).
func (c *Context) TableIIIWorstCase() (*TableIIIResult, error) {
	c.tableIIIOnce.Do(func() {
		c.tableIII, c.tableIIIErr = c.tableIIIWorstCase()
	})
	return c.tableIII, c.tableIIIErr
}

func (c *Context) tableIIIWorstCase() (*TableIIIResult, error) {
	set, err := mloops.TrainingSet()
	if err != nil {
		return nil, err
	}
	// Reuse the training set's FMA-256KB: Instructions is the only
	// field Characterize takes from its phase-length argument.
	p := set[slices.Index(mloops.Configs(), mloops.Config{Loop: mloops.FMA, Footprint: mloops.FootprintL2})]
	p.Instructions = trainingInstructions
	res := &TableIIIResult{}
	for i := 0; i < c.table.Len(); i++ {
		st := c.table.At(i)
		m, err := machine.New(machine.Config{
			Chain:        c.chain,
			Seed:         c.opts.Seed,
			StartFreqMHz: st.FreqMHz,
		})
		if err != nil {
			return nil, err
		}
		w := phaseWorkload(p)
		run, err := m.Run(w, nil)
		if err != nil {
			return nil, err
		}
		row := TableIIIRow{FreqMHz: st.FreqMHz, PowerW: meanMeasured(run)}
		if pw, ok := paperref.TableIII[st.FreqMHz]; ok {
			row.PaperW = pw
			row.HavePaper = true
			row.DeltaPct = 100 * (row.PowerW - pw) / pw
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print writes Table III.
func (r *TableIIIResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table III: FMA-256KB (worst-case proxy) measured power vs frequency\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%5s %10s %10s %8s\n", "MHz", "meas(W)", "paper(W)", "delta")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d %10.2f %10.2f %+7.1f%%\n", row.FreqMHz, row.PowerW, row.PaperW, row.DeltaPct)
	}
	return nil
}

// TableIVResult maps power limits to static-clocking frequencies.
type TableIVResult struct {
	Rows []TableIVRow
}

// TableIVRow is one limit's static frequency choice.
type TableIVRow struct {
	LimitW     float64
	FreqMHz    int
	PaperMHz   int
	WorstCaseW float64
}

// TableIVStaticFrequencies derives, for each power limit, the highest
// frequency whose worst-case (FMA-256KB) power fits the limit — the
// paper's static-clocking design rule.
func (c *Context) TableIVStaticFrequencies() (*TableIVResult, error) {
	t3, err := c.TableIIIWorstCase()
	if err != nil {
		return nil, err
	}
	res := &TableIVResult{}
	for _, limit := range PowerLimits() {
		best := TableIVRow{LimitW: limit, FreqMHz: c.table.Min().FreqMHz}
		for _, row := range t3.Rows {
			if row.PowerW <= limit && row.FreqMHz > best.FreqMHz {
				best.FreqMHz = row.FreqMHz
				best.WorstCaseW = row.PowerW
			}
		}
		if best.WorstCaseW == 0 {
			for _, row := range t3.Rows {
				if row.FreqMHz == best.FreqMHz {
					best.WorstCaseW = row.PowerW
				}
			}
		}
		best.PaperMHz = paperref.TableIV[limit]
		res.Rows = append(res.Rows, best)
	}
	return res, nil
}

// StaticFreqFor returns the static frequency the Table IV rule selects
// for the limit.
func (r *TableIVResult) StaticFreqFor(limitW float64) (int, error) {
	for _, row := range r.Rows {
		if row.LimitW == limitW {
			return row.FreqMHz, nil
		}
	}
	return 0, fmt.Errorf("experiment: no Table IV row for %.1f W", limitW)
}

// Print writes Table IV.
func (r *TableIVResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table IV: power limit -> static frequency (worst-case rule)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %10s %10s %12s\n", "limit(W)", "MHz", "paper", "worst(W)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8.1f %10d %10d %12.2f\n", row.LimitW, row.FreqMHz, row.PaperMHz, row.WorstCaseW)
	}
	return nil
}

// shared helpers

// phaseWorkload wraps one characterized phase as a runnable workload.
func phaseWorkload(p phase.Params) phase.Workload {
	return phase.Workload{Name: p.Name, Phases: []phase.Params{p}}
}

func avgRow(r *trace.Run, f func(trace.Row) float64) float64 {
	var num, den float64
	for _, row := range r.Rows {
		s := row.Interval.Seconds()
		num += f(row) * s
		den += s
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func runDCUPerInst(r *trace.Run) float64 {
	var dcu, instr float64
	for _, row := range r.Rows {
		cyc := row.Interval.Seconds() * float64(row.FreqMHz) * 1e6
		dcu += row.DCU * cyc
		instr += row.Instructions
	}
	if instr == 0 {
		return 0
	}
	return dcu / instr
}

func meanMeasured(r *trace.Run) float64 {
	return avgRow(r, func(row trace.Row) float64 { return row.MeasuredPowerW })
}

func sortByValue(names []string, vals map[string]float64, ascending bool) []string {
	out := make([]string, len(names))
	copy(out, names)
	sort.SliceStable(out, func(i, j int) bool {
		if ascending {
			return vals[out[i]] < vals[out[j]]
		}
		return vals[out[i]] > vals[out[j]]
	})
	return out
}
