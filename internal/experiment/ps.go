package experiment

import (
	"fmt"
	"io"
	"sort"

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
	runs, err := c.runSet(withRows, []string{"ammp"}, c.staticSpec(2000), psSpec(0.80, model.PaperExponent))
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Unconstrained: runs[0][0], PS80: runs[1][0]}, nil
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

// psSuiteRuns runs the suite unconstrained (runs[0]), at 600 MHz
// (runs[1]) and under PS at each floor (runs[2:]) with the published
// eq. 3 model (exponent 0.81): the runs of Figures 9-11.
func (c *Context) psSuiteRuns() ([][]*trace.Run, error) {
	specs := []runSpec{c.staticSpec(2000), c.staticSpec(600)}
	for _, f := range Floors() {
		specs = append(specs, psSpec(f, model.PaperExponent))
	}
	return c.runSet(totalsOnly, c.SuiteNames(), specs...)
}

// Fig9PSSuite sweeps the four floors over the full suite.
func (c *Context) Fig9PSSuite() (*Fig9Result, error) {
	runs, err := c.psSuiteRuns()
	if err != nil {
		return nil, err
	}
	baseT, baseE := suiteTime(runs[0]).Seconds(), suiteEnergy(runs[0])
	row := func(floor float64, suite []*trace.Run) Fig9Row {
		return Fig9Row{
			Floor:         floor,
			PerfReduction: 1 - baseT/suiteTime(suite).Seconds(),
			EnergySavings: 1 - suiteEnergy(suite)/baseE,
		}
	}
	res := &Fig9Result{MinFreq: row(0, runs[1])}
	for i, f := range Floors() {
		r := row(f, runs[2+i])
		r.Violated = r.PerfReduction > (1-f)+1e-9
		res.Rows = append(res.Rows, r)
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
	runs, err := c.psSuiteRuns()
	if err != nil {
		return nil, err
	}
	floors := Floors()
	res := &Fig10Result{Floors: floors}
	for w, n := range c.SuiteNames() {
		base := runs[0][w].MeasuredEnergyJ
		row := Fig10Row{Name: n, At600: 1 - runs[1][w].MeasuredEnergyJ/base}
		for i := range floors {
			row.Savings = append(row.Savings, 1-runs[2+i][w].MeasuredEnergyJ/base)
		}
		res.Rows = append(res.Rows, row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].At600 > res.Rows[j].At600 })
	sumBase := suiteEnergy(runs[0])
	res.AllBench = Fig10Row{Name: "ALLBENCH", At600: 1 - suiteEnergy(runs[1])/sumBase}
	for i := range floors {
		res.AllBench.Savings = append(res.AllBench.Savings, 1-suiteEnergy(runs[2+i])/sumBase)
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
	runs, err := c.psSuiteRuns()
	if err != nil {
		return nil, err
	}
	floors := Floors()
	res := &Fig11Result{Floors: floors}
	var sumBase, sum600 float64
	sums := make([]float64, len(floors))
	for w, n := range c.SuiteNames() {
		base, min := runs[0][w].Duration.Seconds(), runs[1][w].Duration.Seconds()
		row := Fig11Row{Name: n, At600: 1 - base/min}
		for i, f := range floors {
			ps := runs[2+i][w].Duration.Seconds()
			red := 1 - base/ps
			row.Reductions = append(row.Reductions, red)
			sums[i] += ps
			if red > (1-f)+violationSlack {
				alt, err := c.run(totalsOnly, n, psSpec(f, model.PaperExponentAlt))
				if err != nil {
					return nil, err
				}
				res.Violations = append(res.Violations, Violation{
					Name: n, Floor: f,
					Reduction081: red,
					Reduction059: 1 - base/alt.Duration.Seconds(),
					Allowed:      1 - f,
				})
			}
		}
		sumBase += base
		sum600 += min
		res.Rows = append(res.Rows, row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].At600 < res.Rows[j].At600 })
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
