package experiment

import (
	"fmt"
	"io"

	"aapm/internal/model"
	"aapm/internal/trace"
)

// Fig8Result is the PS timeline on ammp with an 80% performance floor
// (Figure 8).
type Fig8Result struct {
	Unconstrained *trace.Run
	PS80          *trace.Run
}

// Fig8PSTimeline runs ammp unconstrained and under PS at 80%.
func (c *Context) Fig8PSTimeline() (*Fig8Result, error) {
	res := &Fig8Result{}
	jobs := []func() error{
		func() (err error) { res.Unconstrained, err = c.RunStatic("ammp", 2000); return },
		func() (err error) { res.PS80, err = c.RunPS("ammp", 0.80, model.PaperExponent); return },
	}
	if err := c.forEachN(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the PS timeline.
func (r *Fig8Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 8: PowerSave on ammp with an 80%% performance floor\n"); err != nil {
		return err
	}
	for _, run := range []*trace.Run{r.Unconstrained, r.PS80} {
		if err := run.TimelineSummary(w); err != nil {
			return err
		}
	}
	if err := trace.RenderASCII(w, "  frequency (MHz) under PS(80%)", 100, 8,
		trace.Series{Name: "freq", Values: r.PS80.Freqs()}); err != nil {
		return err
	}
	loss := 1 - r.Unconstrained.Duration.Seconds()/r.PS80.Duration.Seconds()
	save := 1 - r.PS80.MeasuredEnergyJ/r.Unconstrained.MeasuredEnergyJ
	_, err := fmt.Fprintf(w, "ammp @80%%: perf loss %.1f%%, energy savings %.1f%%\n", loss*100, save*100)
	return err
}

// Fig9Result is the suite-level PS study (Figure 9): performance
// reduction and energy savings per floor, plus the 600 MHz bound.
type Fig9Result struct {
	Rows []Fig9Row
	// MinFreq is the 600 MHz upper bound on savings.
	MinFreq Fig9Row
}

// Fig9Row is one floor's suite outcome.
type Fig9Row struct {
	Floor float64
	// PerfReduction is 1 - T(2GHz)/T(PS) over suite total time.
	PerfReduction float64
	// EnergySavings is 1 - E(PS)/E(2GHz) over suite total energy.
	EnergySavings float64
	// Violated reports whether the suite-level reduction exceeded the
	// allowed 1-Floor.
	Violated bool
}

// Fig9PSSuite sweeps the four floors over the full suite with the
// published eq. 3 model (exponent 0.81).
func (c *Context) Fig9PSSuite() (*Fig9Result, error) {
	names := c.SuiteNames()
	floors := Floors()
	// 2 GHz + 600 MHz + each floor, per benchmark.
	if err := c.forEachN(len(names)*(len(floors)+2), func(i int) error {
		n := names[i/(len(floors)+2)]
		k := i % (len(floors) + 2)
		switch k {
		case 0:
			_, err := c.staticRun(n, 2000, totalsOnly)
			return err
		case 1:
			_, err := c.staticRun(n, 600, totalsOnly)
			return err
		default:
			_, err := c.psRun(n, floors[k-2], model.PaperExponent, totalsOnly)
			return err
		}
	}); err != nil {
		return nil, err
	}

	baseT, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.staticRun(n, 2000, totalsOnly) })
	if err != nil {
		return nil, err
	}
	baseE, err := c.suiteEnergy(func(n string) (*trace.Run, error) { return c.staticRun(n, 2000, totalsOnly) })
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for _, f := range floors {
		f := f
		t, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.psRun(n, f, model.PaperExponent, totalsOnly) })
		if err != nil {
			return nil, err
		}
		e, err := c.suiteEnergy(func(n string) (*trace.Run, error) { return c.psRun(n, f, model.PaperExponent, totalsOnly) })
		if err != nil {
			return nil, err
		}
		row := Fig9Row{
			Floor:         f,
			PerfReduction: 1 - baseT.Seconds()/t.Seconds(),
			EnergySavings: 1 - e/baseE,
		}
		row.Violated = row.PerfReduction > (1-f)+1e-9
		res.Rows = append(res.Rows, row)
	}
	tMin, err := c.suiteTime(func(n string) (*trace.Run, error) { return c.staticRun(n, 600, totalsOnly) })
	if err != nil {
		return nil, err
	}
	eMin, err := c.suiteEnergy(func(n string) (*trace.Run, error) { return c.staticRun(n, 600, totalsOnly) })
	if err != nil {
		return nil, err
	}
	res.MinFreq = Fig9Row{
		Floor:         0,
		PerfReduction: 1 - baseT.Seconds()/tMin.Seconds(),
		EnergySavings: 1 - eMin/baseE,
	}
	return res, nil
}

// Print writes the Figure 9 series.
func (r *Fig9Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 9: suite perf reduction and energy savings vs PS floor (exponent 0.81)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %12s %12s %10s\n", "floor", "perf loss", "energy save", "compliant")
	for _, row := range r.Rows {
		ok := "yes"
		if row.Violated {
			ok = "NO"
		}
		fmt.Fprintf(w, "%7.0f%% %11.1f%% %11.1f%% %10s\n",
			row.Floor*100, row.PerfReduction*100, row.EnergySavings*100, ok)
	}
	_, err := fmt.Fprintf(w, "600 MHz bound: perf loss %.1f%%, energy save %.1f%%\n",
		r.MinFreq.PerfReduction*100, r.MinFreq.EnergySavings*100)
	return err
}

// Fig10Result is per-workload energy savings per floor (Figure 10),
// sorted by the maximum 600 MHz benefit, with the ALLBENCH divider.
type Fig10Result struct {
	Floors []float64
	Rows   []Fig10Row
	// AllBench is the suite-total row the paper uses to split above-
	// and below-average savers.
	AllBench Fig10Row
}

// Fig10Row is one workload's savings.
type Fig10Row struct {
	Name string
	// Savings[i] corresponds to Floors[i]; At600 is the bound.
	Savings []float64
	At600   float64
}

// Fig10EnergySavings computes the per-workload savings table.
func (c *Context) Fig10EnergySavings() (*Fig10Result, error) {
	if _, err := c.Fig9PSSuite(); err != nil { // ensures all runs exist
		return nil, err
	}
	names := c.SuiteNames()
	floors := Floors()
	res := &Fig10Result{Floors: floors}
	order := map[string]float64{}
	var sumBase, sum600 float64
	sums := make([]float64, len(floors))
	for _, n := range names {
		base, err := c.staticRun(n, 2000, totalsOnly)
		if err != nil {
			return nil, err
		}
		min, err := c.staticRun(n, 600, totalsOnly)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{Name: n, At600: 1 - min.MeasuredEnergyJ/base.MeasuredEnergyJ}
		for i, f := range floors {
			ps, err := c.psRun(n, f, model.PaperExponent, totalsOnly)
			if err != nil {
				return nil, err
			}
			row.Savings = append(row.Savings, 1-ps.MeasuredEnergyJ/base.MeasuredEnergyJ)
			sums[i] += ps.MeasuredEnergyJ
		}
		order[n] = row.At600
		sumBase += base.MeasuredEnergyJ
		sum600 += min.MeasuredEnergyJ
		res.Rows = append(res.Rows, row)
	}
	sorted := sortByValue(names, order, false)
	byName := map[string]Fig10Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	res.Rows = res.Rows[:0]
	for _, n := range sorted {
		res.Rows = append(res.Rows, byName[n])
	}
	res.AllBench = Fig10Row{Name: "ALLBENCH", At600: 1 - sum600/sumBase}
	for i := range floors {
		res.AllBench.Savings = append(res.AllBench.Savings, 1-sums[i]/sumBase)
	}
	return res, nil
}

// Print writes the Figure 10 table.
func (r *Fig10Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 10: energy savings per workload and PS floor (sorted by 600 MHz bound)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, f := range r.Floors {
		fmt.Fprintf(w, " %7.0f%%", f*100)
	}
	fmt.Fprintf(w, " %8s\n", "@600MHz")
	printRow := func(row Fig10Row) {
		fmt.Fprintf(w, "%-10s", row.Name)
		for _, s := range row.Savings {
			fmt.Fprintf(w, " %7.1f%%", s*100)
		}
		fmt.Fprintf(w, " %7.1f%%\n", row.At600*100)
	}
	inserted := false
	for _, row := range r.Rows {
		if !inserted && row.At600 < r.AllBench.At600 {
			printRow(r.AllBench)
			inserted = true
		}
		printRow(row)
	}
	if !inserted {
		printRow(r.AllBench)
	}
	return nil
}

// Fig11Result is per-workload performance reduction per floor
// (Figure 11), with floor-violation detection and the exponent
// ablation of §IV-B.2.
type Fig11Result struct {
	Floors []float64
	Rows   []Fig11Row
	// AllBench divides above/below-average reduction.
	AllBench Fig11Row
	// Violations lists (workload, floor) pairs whose reduction
	// exceeded the allowance with the 0.81 exponent.
	Violations []Violation
}

// Fig11Row is one workload's reductions.
type Fig11Row struct {
	Name       string
	Reductions []float64
	At600      float64
}

// Violation is one floor violation with both exponents' outcomes.
type Violation struct {
	Name  string
	Floor float64
	// Reduction081/Reduction059 are the measured perf losses with the
	// two exponents; allowed is 1-Floor.
	Reduction081 float64
	Reduction059 float64
	Allowed      float64
}

// violationSlack: reductions beyond allowance by more than this count
// as violations (filters boundary rounding on exact-floor states).
const violationSlack = 0.01

// Fig11PerfReduction computes the per-workload reduction table and
// the art/mcf exponent ablation.
func (c *Context) Fig11PerfReduction() (*Fig11Result, error) {
	if _, err := c.Fig9PSSuite(); err != nil {
		return nil, err
	}
	names := c.SuiteNames()
	floors := Floors()
	res := &Fig11Result{Floors: floors}
	order := map[string]float64{}
	var sumBase, sum600 float64
	sums := make([]float64, len(floors))
	for _, n := range names {
		base, err := c.staticRun(n, 2000, totalsOnly)
		if err != nil {
			return nil, err
		}
		min, err := c.staticRun(n, 600, totalsOnly)
		if err != nil {
			return nil, err
		}
		row := Fig11Row{Name: n, At600: 1 - base.Duration.Seconds()/min.Duration.Seconds()}
		for i, f := range floors {
			ps, err := c.psRun(n, f, model.PaperExponent, totalsOnly)
			if err != nil {
				return nil, err
			}
			red := 1 - base.Duration.Seconds()/ps.Duration.Seconds()
			row.Reductions = append(row.Reductions, red)
			sums[i] += ps.Duration.Seconds()
			if red > (1-f)+violationSlack {
				alt, err := c.psRun(n, f, model.PaperExponentAlt, totalsOnly)
				if err != nil {
					return nil, err
				}
				res.Violations = append(res.Violations, Violation{
					Name: n, Floor: f,
					Reduction081: red,
					Reduction059: 1 - base.Duration.Seconds()/alt.Duration.Seconds(),
					Allowed:      1 - f,
				})
			}
		}
		order[n] = row.At600
		sumBase += base.Duration.Seconds()
		sum600 += min.Duration.Seconds()
		res.Rows = append(res.Rows, row)
	}
	sorted := sortByValue(names, order, true)
	byName := map[string]Fig11Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	res.Rows = res.Rows[:0]
	for _, n := range sorted {
		res.Rows = append(res.Rows, byName[n])
	}
	res.AllBench = Fig11Row{Name: "ALLBENCH", At600: 1 - sumBase/sum600}
	for i := range floors {
		res.AllBench.Reductions = append(res.AllBench.Reductions, 1-sumBase/sums[i])
	}
	return res, nil
}

// Print writes the Figure 11 table and the violation/ablation report.
func (r *Fig11Result) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig 11: performance reduction per workload and PS floor (sorted by 600 MHz reduction)\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s", "benchmark")
	for _, f := range r.Floors {
		fmt.Fprintf(w, " %7.0f%%", f*100)
	}
	fmt.Fprintf(w, " %8s\n", "@600MHz")
	printRow := func(row Fig11Row) {
		fmt.Fprintf(w, "%-10s", row.Name)
		for _, s := range row.Reductions {
			fmt.Fprintf(w, " %7.1f%%", s*100)
		}
		fmt.Fprintf(w, " %7.1f%%\n", row.At600*100)
	}
	inserted := false
	for _, row := range r.Rows {
		if !inserted && row.At600 > r.AllBench.At600 {
			printRow(r.AllBench)
			inserted = true
		}
		printRow(row)
	}
	if !inserted {
		printRow(r.AllBench)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintln(w, "no floor violations (paper: art and mcf violate with exponent 0.81)")
		return nil
	}
	fmt.Fprintln(w, "floor violations with exponent 0.81, re-run with 0.59 (paper: art 42.2%->26.3%/48.3%, mcf 27.7%->17.9%):")
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  %-8s floor %2.0f%%: loss %5.1f%% (allowed %2.0f%%) -> with e=0.59: %5.1f%%\n",
			v.Name, v.Floor*100, v.Reduction081*100, v.Allowed*100, v.Reduction059*100)
	}
	return nil
}
