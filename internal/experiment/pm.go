package experiment

import (
	"fmt"
	"io"
	"sort"

	"aapm/internal/stats"
	"aapm/internal/trace"
)

// Fig5Result is the PM timeline on ammp (Figure 5): unconstrained
// 2 GHz against PM at 14.5 W and 10.5 W.
type Fig5Result struct {
	Unconstrained *trace.Run
	PM145         *trace.Run
	PM105         *trace.Run
}

// Fig5PMTimeline runs the three ammp configurations.
func (c *Context) Fig5PMTimeline() (*Fig5Result, error) {
	runs, err := c.runSet(withRows, []string{"ammp"}, c.staticSpec(2000), pmSpec(14.5), pmSpec(10.5))
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Unconstrained: runs[0][0], PM145: runs[1][0], PM105: runs[2][0]}, nil
}

// Print renders the three timelines as ASCII charts plus summaries.
func (r *Fig5Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 5: PerformanceMaximizer on ammp (runs to completion in each case)\n"); err != nil {
		return err
	}
	for _, run := range []*trace.Run{r.Unconstrained, r.PM145, r.PM105} {
		if err := run.TimelineSummary(w); err != nil {
			return err
		}
		if err := trace.RenderASCII(w, fmt.Sprintf("  power (W), %s", run.Policy), 100, 10,
			trace.Series{Name: "power", Values: run.MeasuredPowers()}); err != nil {
			return err
		}
		if err := trace.RenderASCII(w, fmt.Sprintf("  frequency (MHz), %s", run.Policy), 100, 8,
			trace.Series{Name: "freq", Values: run.Freqs()}); err != nil {
			return err
		}
	}
	return nil
}

// Fig6Result is normalized performance versus power limit for PM's
// dynamic clocking against worst-case static clocking (Figure 6).
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6Row is one power limit's suite performance.
type Fig6Row struct {
	LimitW float64
	// StaticMHz is the Table IV frequency for the limit.
	StaticMHz int
	// NormPerfPM and NormPerfStatic are suite performance normalized
	// to unconstrained 2 GHz execution (total-time ratios, <= 1).
	NormPerfPM     float64
	NormPerfStatic float64
}

// Fig6PerfVsPowerLimit sweeps the eight limits over the full suite.
func (c *Context) Fig6PerfVsPowerLimit() (*Fig6Result, error) {
	t4, err := c.TableIVStaticFrequencies()
	if err != nil {
		return nil, err
	}
	limits := PowerLimits()
	// Unconstrained, then each limit's Table IV static frequency and PM.
	freqs := make([]int, len(limits))
	specs := []runSpec{c.staticSpec(2000)}
	for i, l := range limits {
		if freqs[i], err = t4.StaticFreqFor(l); err != nil {
			return nil, err
		}
		specs = append(specs, c.staticSpec(freqs[i]), pmSpec(l))
	}
	runs, err := c.runSet(totalsOnly, c.SuiteNames(), specs...)
	if err != nil {
		return nil, err
	}
	base := suiteTime(runs[0]).Seconds()
	res := &Fig6Result{}
	for i, l := range limits {
		res.Rows = append(res.Rows, Fig6Row{
			LimitW:         l,
			StaticMHz:      freqs[i],
			NormPerfPM:     base / suiteTime(runs[2+2*i]).Seconds(),
			NormPerfStatic: base / suiteTime(runs[1+2*i]).Seconds(),
		})
	}
	return res, nil
}

// Print writes the Figure 6 series.
func (r *Fig6Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 6: suite performance vs power limit (normalized to unconstrained 2 GHz)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %10s %12s %14s\n", "limit(W)", "staticMHz", "PM(dynamic)", "static")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8.1f %10d %12.4f %14.4f\n", row.LimitW, row.StaticMHz, row.NormPerfPM, row.NormPerfStatic)
	}
	return nil
}

// Fig7Result is the per-benchmark PM speedup study at the 17.5 W
// limit (Figure 7): PM and unconstrained speedups over 1800 MHz
// static clocking, sorted by the unconstrained speedup.
type Fig7Result struct {
	Rows []Fig7Row
	// SuiteSpeedupPM and SuiteSpeedupMax are total-time suite
	// speedups over static clocking; FractionOfPossible is
	// (PM-1)/(Max-1), the paper's 86% headline.
	SuiteSpeedupPM     float64
	SuiteSpeedupMax    float64
	FractionOfPossible float64
}

// Fig7Row is one benchmark's speedups at the 17.5 W limit.
type Fig7Row struct {
	Name string
	// SpeedupPM is T(static 1800)/T(PM@17.5) - 1.
	SpeedupPM float64
	// SpeedupMax is T(static 1800)/T(2000 unconstrained) - 1.
	SpeedupMax float64
}

// Fig7Limit is the power limit of the Figure 7 study.
const Fig7Limit = 17.5

// Fig7PMSpeedup computes per-benchmark and suite speedups at 17.5 W.
func (c *Context) Fig7PMSpeedup() (*Fig7Result, error) {
	t4, err := c.TableIVStaticFrequencies()
	if err != nil {
		return nil, err
	}
	staticMHz, err := t4.StaticFreqFor(Fig7Limit)
	if err != nil {
		return nil, err
	}
	names := c.SuiteNames()
	runs, err := c.runSet(totalsOnly, names, c.staticSpec(staticMHz), c.staticSpec(2000), pmSpec(Fig7Limit))
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	var totStatic, totPM, totMax float64
	for i, n := range names {
		st, mx, pm := runs[0][i].Duration.Seconds(), runs[1][i].Duration.Seconds(), runs[2][i].Duration.Seconds()
		res.Rows = append(res.Rows, Fig7Row{Name: n, SpeedupPM: st/pm - 1, SpeedupMax: st/mx - 1})
		totStatic += st
		totPM += pm
		totMax += mx
	}
	// Sort rows by unconstrained speedup, as the paper plots them.
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].SpeedupMax < res.Rows[j].SpeedupMax })
	res.SuiteSpeedupPM = totStatic/totPM - 1
	res.SuiteSpeedupMax = totStatic/totMax - 1
	if res.SuiteSpeedupMax > 0 {
		res.FractionOfPossible = res.SuiteSpeedupPM / res.SuiteSpeedupMax
	}
	return res, nil
}

// Print writes the Figure 7 bars.
func (r *Fig7Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 7: speedup over static 1800 MHz at the 17.5 W limit (sorted by unconstrained speedup)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %14s\n", "benchmark", "PM", "unconstrained")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %+9.1f%% %+13.1f%%\n", row.Name, row.SpeedupPM*100, row.SpeedupMax*100)
	}
	_, err := fmt.Fprintf(w, "suite: PM %+.2f%%, max %+.2f%% -> PM achieves %.0f%% of the possible speedup (paper: 86%%)\n",
		r.SuiteSpeedupPM*100, r.SuiteSpeedupMax*100, r.FractionOfPossible*100)
	return err
}

// AdherenceResult quantifies PM power-limit compliance over 100 ms
// moving-average windows (§IV-A.2).
type AdherenceResult struct {
	Rows []AdherenceRow
	// Worst names the workload/limit with the highest over-limit
	// fraction (galgel at 13.5 W in the paper).
	Worst AdherenceRow
}

// AdherenceRow is compliance for one (benchmark, limit).
type AdherenceRow struct {
	Name   string
	LimitW float64
	// OverFrac is the fraction of run-time (10 ms samples) above the
	// limit — the paper's "~10% of run-time" metric for galgel.
	OverFrac float64
	// OverFracWindows is the fraction of full 100 ms moving-average
	// windows above the limit.
	OverFracWindows float64
	// PeakWindowW is the maximum 100 ms moving-average power.
	PeakWindowW float64
	// PeakSampleW is the maximum individual 10 ms sample.
	PeakSampleW float64
}

// adherenceWindow is ten 10 ms samples, the paper's enforcement window.
const adherenceWindow = 10

// PMLimitAdherence checks every benchmark at every limit.
func (c *Context) PMLimitAdherence() (*AdherenceResult, error) {
	names := c.SuiteNames()
	limits := PowerLimits()
	specs := make([]runSpec, len(limits))
	for i, l := range limits {
		specs[i] = pmSpec(l)
	}
	runs, err := c.runSet(withRows, names, specs...)
	if err != nil {
		return nil, err
	}
	res := &AdherenceResult{}
	for w, n := range names {
		for i, l := range limits {
			meas := runs[i][w].MeasuredPowers()
			win := trace.MovingAvg(meas, adherenceWindow)
			// Skip warm-up partial windows: only averages over a full
			// ten samples count toward enforcement.
			if len(win) >= adherenceWindow {
				win = win[adherenceWindow-1:]
			}
			row := AdherenceRow{
				Name: n, LimitW: l,
				OverFrac:        trace.FractionAbove(meas, l),
				OverFracWindows: trace.FractionAbove(win, l),
				PeakWindowW:     stats.Max(win),
				PeakSampleW:     stats.Max(meas),
			}
			res.Rows = append(res.Rows, row)
			if row.OverFrac > res.Worst.OverFrac {
				res.Worst = row
			}
		}
	}
	return res, nil
}

// Print writes the adherence summary: violating rows only, plus the
// worst case.
func (r *AdherenceResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "PM power-limit adherence (100 ms moving-average windows)\n"); err != nil {
		return err
	}
	n := 0
	for _, row := range r.Rows {
		if row.OverFrac > 0.02 {
			fmt.Fprintf(w, "  %-10s limit %5.1fW: %5.1f%% of run-time over (%4.1f%% of 100ms windows); peak window %5.2fW, peak sample %5.2fW\n",
				row.Name, row.LimitW, row.OverFrac*100, row.OverFracWindows*100, row.PeakWindowW, row.PeakSampleW)
			n++
		}
	}
	if n == 0 {
		fmt.Fprintln(w, "  all benchmarks within limits at all eight limits")
	}
	_, err := fmt.Fprintf(w, "worst: %s at %.1fW, %.1f%% of run-time over (paper: galgel, ~10%% at 13.5W)\n",
		r.Worst.Name, r.Worst.LimitW, r.Worst.OverFrac*100)
	return err
}
