// Package report compiles every experiment into a single markdown
// document — a regenerable EXPERIMENTS-style report with the measured
// numbers of the current build, so reproduction claims never go stale
// against the code.
package report

import (
	"fmt"
	"io"

	"aapm/internal/experiment"
)

// Generate runs the full evaluation on ctx and writes the report.
func Generate(ctx *experiment.Context, w io.Writer) error {
	p := &printer{w: w}
	p.h1("Application-Aware Power Management — regenerated evaluation")
	p.line("All numbers produced by this build on the simulated Pentium M platform.")
	p.line("")

	fig1, err := ctx.Fig1PowerVariation()
	if err != nil {
		return err
	}
	p.h2("Power variation at 2 GHz (Figure 1)")
	p.linef("Suite range %.2f–%.2f W — %.1f%% of the %.2f W peak sample (%s).",
		fig1.SuiteMinW, fig1.SuiteMaxW, fig1.RangeFrac*100, fig1.PeakW, fig1.MaxSampleBench)
	p.table([]string{"benchmark", "mean W", "max W", "DCU/I"}, func(add func(...string)) {
		for _, r := range fig1.Rows {
			add(r.Name, f2(r.MeanW), f2(r.MaxW), f2(r.DCUI))
		}
	})

	fig2, err := ctx.Fig2PstatePerformance()
	if err != nil {
		return err
	}
	p.h2("P-state performance impact (Figure 2)")
	p.table([]string{"benchmark", "1600", "1800", "2000"}, func(add func(...string)) {
		for _, r := range fig2.Rows {
			add(r.Name, f3(r.RelPerf[0]), f3(r.RelPerf[1]), f3(r.RelPerf[2]))
		}
	})

	t2, err := ctx.TableIIPowerModel()
	if err != nil {
		return err
	}
	p.h2("Trained power model (Table II)")
	p.linef("Training MAE %.3f W; eq. 3 fit threshold %.2f, exponent %.2f (paper 1.21/0.81).",
		t2.MeanAbsErrW, t2.PerfFit.Best.Threshold, t2.PerfFit.Best.Exponent)
	p.table([]string{"MHz", "α fit", "α paper", "β fit", "β paper"}, func(add func(...string)) {
		for _, r := range t2.Rows {
			add(fmt.Sprint(r.FreqMHz), f3(r.Alpha), f2(r.PaperAlpha), f3(r.Beta), f2(r.PaperBeta))
		}
	})

	t4, err := ctx.TableIVStaticFrequencies()
	if err != nil {
		return err
	}
	p.h2("Power limit → static frequency (Table IV)")
	p.table([]string{"limit W", "MHz", "paper"}, func(add func(...string)) {
		for _, r := range t4.Rows {
			add(f1(r.LimitW), fmt.Sprint(r.FreqMHz), fmt.Sprint(r.PaperMHz))
		}
	})

	fig7, err := ctx.Fig7PMSpeedup()
	if err != nil {
		return err
	}
	p.h2("PM speedup at 17.5 W (Figure 7)")
	p.linef("Suite: PM %+.2f%% vs static, unconstrained %+.2f%% — **%.0f%% of the possible speedup** (paper: 86%%).",
		fig7.SuiteSpeedupPM*100, fig7.SuiteSpeedupMax*100, fig7.FractionOfPossible*100)

	adh, err := ctx.PMLimitAdherence()
	if err != nil {
		return err
	}
	p.h2("PM limit adherence")
	p.linef("Worst offender: %s at %.1f W, %.1f%% of run-time over (paper: galgel, ~10%% at 13.5 W).",
		adh.Worst.Name, adh.Worst.LimitW, adh.Worst.OverFrac*100)

	fig9, err := ctx.Fig9PSSuite()
	if err != nil {
		return err
	}
	p.h2("PS suite results (Figure 9)")
	p.table([]string{"floor", "perf loss", "energy save", "compliant"}, func(add func(...string)) {
		for _, r := range fig9.Rows {
			ok := "yes"
			if r.Violated {
				ok = "NO"
			}
			add(pct(r.Floor), pct(r.PerfReduction), pct(r.EnergySavings), ok)
		}
	})

	fig11, err := ctx.Fig11PerfReduction()
	if err != nil {
		return err
	}
	p.h2("PS floor violations and exponent repair (Figure 11)")
	if len(fig11.Violations) == 0 {
		p.line("No violations.")
	} else {
		p.table([]string{"workload", "floor", "loss e=0.81", "loss e=0.59", "allowed"}, func(add func(...string)) {
			for _, v := range fig11.Violations {
				add(v.Name, pct(v.Floor), pct(v.Reduction081), pct(v.Reduction059), pct(v.Allowed))
			}
		})
	}

	eng, err := ctx.EngineMetrics()
	if err != nil {
		return err
	}
	p.h2("Tick engine metrics")
	p.linef("Per-run counters the tick engine totals into each run on %s (PM limit %.1f W).",
		eng.Workload, eng.LimitW)
	p.table([]string{"policy", "ticks", "transitions", "stall ms", "energy J", "avg W", "over-limit"}, func(add func(...string)) {
		for _, r := range eng.Rows {
			add(r.Policy, fmt.Sprint(r.Ticks), fmt.Sprint(r.Transitions), f1(r.StallMs), f1(r.EnergyJ), f2(r.AvgPowerW), fmt.Sprint(r.Violations))
		}
	})

	base, err := ctx.BaselineComparison()
	if err != nil {
		return err
	}
	p.h2("Counter-driven governor baselines")
	p.table([]string{"policy", "perf loss", "energy save"}, func(add func(...string)) {
		for _, r := range base.Rows {
			add(r.Policy, pct(r.Loss), pct(r.Save))
		}
	})

	sc, err := ctx.PaperComparison()
	if err != nil {
		return err
	}
	p.h2("Reproduction scorecard")
	p.table([]string{"claim", "paper", "measured", "verdict"}, func(add func(...string)) {
		for _, r := range sc.Rows {
			verdict := "PASS"
			if !r.Pass {
				verdict = "FAIL"
			}
			if r.Qualitative {
				add(r.Claim, "—", r.Note, verdict)
				continue
			}
			add(r.Claim, f3(r.Paper), f3(r.Measured), verdict)
		}
	})
	if sc.Passed() {
		p.line("")
		p.line("**All claims reproduced.**")
	}

	return p.err
}

// printer accumulates output, capturing the first write error.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) write(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s)
}

func (p *printer) h1(s string)              { p.write("# " + s + "\n\n") }
func (p *printer) h2(s string)              { p.write("\n## " + s + "\n\n") }
func (p *printer) line(s string)            { p.write(s + "\n") }
func (p *printer) linef(f string, a ...any) { p.line(fmt.Sprintf(f, a...)) }

// table writes a markdown table; fill calls add once per row.
func (p *printer) table(header []string, fill func(add func(...string))) {
	p.write("|")
	for _, h := range header {
		p.write(" " + h + " |")
	}
	p.write("\n|")
	for range header {
		p.write("---|")
	}
	p.write("\n")
	fill(func(cells ...string) {
		p.write("|")
		for _, c := range cells {
			p.write(" " + c + " |")
		}
		p.write("\n")
	})
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
