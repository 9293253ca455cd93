package experiment

import (
	"fmt"
	"io"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/stats"
	"aapm/internal/trace"
)

// SeedResult reports how the headline metrics move across simulation
// seeds — the reproduction's answer to "is this one lucky run?".
type SeedResult struct {
	Seeds []int64
	Rows  []SeedRow
}

// SeedRow is one metric's distribution over seeds.
type SeedRow struct {
	Metric     string
	Values     []float64
	Mean, Std  float64
	MinV, MaxV float64
}

// SeedSensitivity recomputes three headline metrics on fresh contexts
// across five seeds: PM's fraction of possible speedup, galgel's
// over-limit fraction at 13.5 W, and art's 80%-floor loss.
func (c *Context) SeedSensitivity() (*SeedResult, error) {
	seeds := []int64{c.opts.Seed, c.opts.Seed + 101, c.opts.Seed + 202, c.opts.Seed + 303, c.opts.Seed + 404}
	res := &SeedResult{Seeds: seeds}
	metrics := map[string][]float64{}
	for _, seed := range seeds {
		opts := c.opts
		opts.Seed = seed
		ctx, err := NewContext(opts)
		if err != nil {
			return nil, err
		}
		fig7, err := ctx.Fig7PMSpeedup()
		if err != nil {
			return nil, err
		}
		metrics["PM fraction of possible speedup"] = append(metrics["PM fraction of possible speedup"], fig7.FractionOfPossible)

		galgel, err := ctx.RunPM("galgel", 13.5)
		if err != nil {
			return nil, err
		}
		metrics["galgel over-limit fraction at 13.5W"] = append(metrics["galgel over-limit fraction at 13.5W"],
			trace.FractionAbove(galgel.MeasuredPowers(), 13.5))

		art, err := ctx.runSet(totalsOnly, []string{"art"}, ctx.staticSpec(2000), psSpec(0.8, 0.81))
		if err != nil {
			return nil, err
		}
		metrics["art loss at 80% floor (e=0.81)"] = append(metrics["art loss at 80% floor (e=0.81)"],
			1-art[0][0].Duration.Seconds()/art[1][0].Duration.Seconds())
	}
	for _, name := range []string{
		"PM fraction of possible speedup",
		"galgel over-limit fraction at 13.5W",
		"art loss at 80% floor (e=0.81)",
	} {
		vals := metrics[name]
		res.Rows = append(res.Rows, SeedRow{
			Metric: name,
			Values: vals,
			Mean:   stats.Mean(vals),
			Std:    stats.StdDev(vals),
			MinV:   stats.Min(vals),
			MaxV:   stats.Max(vals),
		})
	}
	return res, nil
}

// Print writes the seed-sensitivity table.
func (r *SeedResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Seed sensitivity over %d seeds\n", len(r.Seeds)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-38s %8s %8s %8s %8s\n", "metric", "mean", "std", "min", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-38s %8.3f %8.4f %8.3f %8.3f\n",
			row.Metric, row.Mean, row.Std, row.MinV, row.MaxV)
	}
	return nil
}

// GuardbandSweepResult is the PM guardband sensitivity surface on the
// hardest workload: over-limit time and performance per (guardband,
// limit) cell.
type GuardbandSweepResult struct {
	Guardbands []float64
	Limits     []float64
	// OverFrac[i][j] and NormPerf[i][j] index [guardband][limit].
	OverFrac [][]float64
	NormPerf [][]float64
}

// GuardbandSweep sweeps the PM guardband on galgel across all limits —
// the two-dimensional view behind the paper's single 0.5 W choice.
func (c *Context) GuardbandSweep() (*GuardbandSweepResult, error) {
	res := &GuardbandSweepResult{
		Guardbands: []float64{-1, 0.25, 0.5, 1.0}, // -1 = disabled
		Limits:     PowerLimits(),
	}
	base, err := c.run(totalsOnly, "galgel", c.staticSpec(2000))
	if err != nil {
		return nil, err
	}
	w, err := c.Workload("galgel")
	if err != nil {
		return nil, err
	}
	for _, gb := range res.Guardbands {
		var overs, perfs []float64
		for _, limit := range res.Limits {
			pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: limit, GuardbandW: gb})
			if err != nil {
				return nil, err
			}
			run, err := c.runUncached(machine.Config{}, w, pm, withRows)
			if err != nil {
				return nil, err
			}
			overs = append(overs, trace.FractionAbove(run.MeasuredPowers(), limit))
			perfs = append(perfs, base.Duration.Seconds()/run.Duration.Seconds())
		}
		res.OverFrac = append(res.OverFrac, overs)
		res.NormPerf = append(res.NormPerf, perfs)
	}
	return res, nil
}

// Print writes the sweep as two small matrices.
func (r *GuardbandSweepResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "PM guardband sweep on galgel (rows: guardband, cols: power limit)"); err != nil {
		return err
	}
	header := func() {
		fmt.Fprintf(w, "%10s", "")
		for _, l := range r.Limits {
			fmt.Fprintf(w, " %6.1fW", l)
		}
		fmt.Fprintln(w)
	}
	label := func(gb float64) string {
		if gb < 0 {
			return "off"
		}
		return fmt.Sprintf("%.2fW", gb)
	}
	fmt.Fprintln(w, "over-limit run-time fraction (%):")
	header()
	for i, gb := range r.Guardbands {
		fmt.Fprintf(w, "%10s", label(gb))
		for _, v := range r.OverFrac[i] {
			fmt.Fprintf(w, " %6.1f%%", v*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "performance relative to unconstrained 2 GHz (%):")
	header()
	for i, gb := range r.Guardbands {
		fmt.Fprintf(w, "%10s", label(gb))
		for _, v := range r.NormPerf[i] {
			fmt.Fprintf(w, " %6.1f%%", v*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}
