package experiment

import (
	"fmt"
	"io"
	"time"

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
	res := &Fig5Result{}
	jobs := []func() error{
		func() (err error) { res.Unconstrained, err = c.RunStatic("ammp", 2000); return },
		func() (err error) { res.PM145, err = c.RunPM("ammp", 14.5); return },
		func() (err error) { res.PM105, err = c.RunPM("ammp", 10.5); return },
	}
	if err := c.forEachN(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}
	return res, nil
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
	names := c.SuiteNames()
	limits := PowerLimits()

	// Pre-run everything in parallel: unconstrained, statics, PMs.
	type job struct {
		name  string
		limit float64 // 0 = static at freq
		freq  int
	}
	var jobs []job
	for _, n := range names {
		jobs = append(jobs, job{name: n, freq: 2000})
		for _, l := range limits {
			f, err := t4.StaticFreqFor(l)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{name: n, freq: f})
			jobs = append(jobs, job{name: n, limit: l})
		}
	}
	if err := c.forEachN(len(jobs), func(i int) error {
		j := jobs[i]
		if j.limit > 0 {
			_, err := c.pmRun(j.name, j.limit, totalsOnly)
			return err
		}
		_, err := c.staticRun(j.name, j.freq, totalsOnly)
		return err
	}); err != nil {
		return nil, err
	}

	baseTotal, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.staticRun(n, 2000, totalsOnly) })
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	for _, l := range limits {
		f, err := t4.StaticFreqFor(l)
		if err != nil {
			return nil, err
		}
		pmTotal, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.pmRun(n, l, totalsOnly) })
		if err != nil {
			return nil, err
		}
		stTotal, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.staticRun(n, f, totalsOnly) })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{
			LimitW:         l,
			StaticMHz:      f,
			NormPerfPM:     baseTotal.Seconds() / pmTotal.Seconds(),
			NormPerfStatic: baseTotal.Seconds() / stTotal.Seconds(),
		})
	}
	return res, nil
}

func (c *Context) suiteTime(get func(name string) (*trace.Run, error)) (time.Duration, error) {
	var total time.Duration
	for _, n := range c.SuiteNames() {
		r, err := get(n)
		if err != nil {
			return 0, err
		}
		total += r.Duration
	}
	return total, nil
}

func (c *Context) suiteEnergy(get func(name string) (*trace.Run, error)) (float64, error) {
	var total float64
	for _, n := range c.SuiteNames() {
		r, err := get(n)
		if err != nil {
			return 0, err
		}
		total += r.MeasuredEnergyJ
	}
	return total, nil
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
	if err := c.forEachN(3*len(names), func(i int) error {
		n := names[i/3]
		switch i % 3 {
		case 0:
			_, err := c.staticRun(n, staticMHz, totalsOnly)
			return err
		case 1:
			_, err := c.staticRun(n, 2000, totalsOnly)
			return err
		default:
			_, err := c.pmRun(n, Fig7Limit, totalsOnly)
			return err
		}
	}); err != nil {
		return nil, err
	}

	res := &Fig7Result{}
	order := map[string]float64{}
	var totStatic, totPM, totMax float64
	for _, n := range names {
		st, err := c.staticRun(n, staticMHz, totalsOnly)
		if err != nil {
			return nil, err
		}
		pm, err := c.pmRun(n, Fig7Limit, totalsOnly)
		if err != nil {
			return nil, err
		}
		mx, err := c.staticRun(n, 2000, totalsOnly)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{
			Name:       n,
			SpeedupPM:  st.Duration.Seconds()/pm.Duration.Seconds() - 1,
			SpeedupMax: st.Duration.Seconds()/mx.Duration.Seconds() - 1,
		}
		res.Rows = append(res.Rows, row)
		order[n] = row.SpeedupMax
		totStatic += st.Duration.Seconds()
		totPM += pm.Duration.Seconds()
		totMax += mx.Duration.Seconds()
	}
	// Sort rows by unconstrained speedup, as the paper plots them.
	sorted := sortByValue(names, order, true)
	byName := map[string]Fig7Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	res.Rows = res.Rows[:0]
	for _, n := range sorted {
		res.Rows = append(res.Rows, byName[n])
	}
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
	if err := c.forEachN(len(names)*len(limits), func(i int) error {
		_, err := c.RunPM(names[i/len(limits)], limits[i%len(limits)])
		return err
	}); err != nil {
		return nil, err
	}
	res := &AdherenceResult{}
	for _, n := range names {
		for _, l := range limits {
			run, err := c.RunPM(n, l)
			if err != nil {
				return nil, err
			}
			meas := run.MeasuredPowers()
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
