// Command aapm-run executes one workload under one policy on the
// simulated platform and prints a summary, optionally dumping the full
// 10 ms trace as CSV.
//
// Usage:
//
//	aapm-run -workload ammp -policy pm -limit 14.5
//	aapm-run -workload swim -policy ps -floor 0.8
//	aapm-run -workload crafty -policy static -freq 1800 -csv trace.csv
//	aapm-run -workload galgel -policy pm -limit 13.5 -metrics
//	aapm-run -workload mcf -policy pm -trace-out trace.json
//	aapm-run -workload-file my.json -policy ondemand
//	aapm-run -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

func main() {
	workload := flag.String("workload", "ammp", "SPEC workload name")
	workloadFile := flag.String("workload-file", "", "JSON workload definition (overrides -workload)")
	policy := flag.String("policy", "none", "policy: none, static, pm, ps, throttle, cruise, ondemand")
	govSpec := flag.String("gov", "", `full governor spec, e.g. "pm:limit=14.5,feedback=0.1" (overrides -policy)`)
	limit := flag.Float64("limit", 14.5, "PM power limit in watts")
	floor := flag.Float64("floor", 0.8, "PS performance floor (0..1]")
	exponent := flag.Float64("exponent", model.PaperExponent, "PS eq.3 exponent")
	freq := flag.Int("freq", 2000, "static policy frequency in MHz")
	seed := flag.Int64("seed", 7, "simulation seed")
	csvPath := flag.String("csv", "", "write the full 10 ms trace to this CSV file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
	showMetrics := flag.Bool("metrics", false, "print tick-engine counters (ticks, transitions, stall, per-stage wall-clock)")
	list := flag.Bool("list", false, "list available workloads and exit")
	flag.Parse()

	if *list {
		for _, n := range spec.Names() {
			cls, _ := spec.ClassOf(n)
			fmt.Printf("%-10s %s\n", n, cls)
		}
		return
	}

	var w phase.Workload
	var err error
	if *workloadFile != "" {
		f, ferr := os.Open(*workloadFile)
		if ferr != nil {
			fatal(ferr)
		}
		w, err = phase.ParseWorkloadJSON(f)
		f.Close()
	} else {
		w, err = spec.ByName(*workload)
	}
	if err != nil {
		fatal(err)
	}
	m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: *seed})
	if err != nil {
		fatal(err)
	}

	// -metrics counts over-limit intervals only when the policy
	// declares a power limit to judge against.
	var limitW float64
	var gov machine.Governor
	if *govSpec != "" {
		gov, err = control.Parse(*govSpec, m.Table())
		if err != nil {
			fatal(err)
		}
		runAndReport(m, w, gov, *csvPath, *traceOut, *showMetrics, 0)
		return
	}
	switch *policy {
	case "none":
	case "static":
		idx := m.Table().IndexOf(*freq)
		if idx < 0 {
			fatal(fmt.Errorf("no p-state with frequency %d MHz", *freq))
		}
		gov = control.NewStaticClock(idx, fmt.Sprintf("static%d", *freq))
	case "pm":
		gov, err = control.NewPerformanceMaximizer(control.PMConfig{LimitW: *limit})
		if err != nil {
			fatal(err)
		}
		limitW = *limit
	case "ps":
		gov, err = control.NewPowerSave(control.PSConfig{
			Floor: *floor,
			Perf:  model.PerfModel{Threshold: model.PaperDCUThreshold, Exponent: *exponent},
		})
		if err != nil {
			fatal(err)
		}
	case "throttle":
		gov, err = control.NewThrottleSave(control.ThrottleSaveConfig{Floor: *floor})
		if err != nil {
			fatal(err)
		}
	case "cruise":
		gov, err = control.NewCruiseControl(control.CruiseControlConfig{Slowdown: 1 - *floor})
		if err != nil {
			fatal(err)
		}
	case "ondemand":
		gov = &control.OnDemand{}
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	runAndReport(m, w, gov, *csvPath, *traceOut, *showMetrics, limitW)
}

func runAndReport(m *machine.Machine, w phase.Workload, gov machine.Governor, csvPath, traceOut string, showMetrics bool, limitW float64) {
	s, err := m.NewSession(w, gov)
	if err != nil {
		fatal(err)
	}
	if showMetrics {
		s.EnableStageTiming()
	}
	var tw *telemetry.TraceEventWriter
	var tf *os.File
	if traceOut != "" {
		tf, err = os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		tw = telemetry.NewTraceEventWriter(tf)
		s.Subscribe(tw.RunHook(w.Name, gov.Name()))
		// Stage spans need wall-clock stage timing on the bus.
		s.EnableStageTiming()
	}
	for {
		done, err := s.Step()
		if err != nil {
			fatal(err)
		}
		if done {
			break
		}
	}
	run := s.Result()
	if err := run.TimelineSummary(os.Stdout); err != nil {
		fatal(err)
	}
	if showMetrics {
		if err := printMetrics(os.Stdout, run, limitW, s.StageNanos()); err != nil {
			fatal(err)
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		if err := run.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d rows)\n", csvPath, len(run.Rows))
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace events written to %s (%d events)\n", traceOut, tw.Events())
	}
}

// printMetrics writes the run's engine counters as an aligned table:
// violations only when limitW is positive, per-stage wall-clock rows
// only when stage timing recorded any.
func printMetrics(w io.Writer, run *trace.Run, limitW float64, stageNanos [machine.NumStages]int64) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("engine metrics:\n"); err != nil {
		return err
	}
	rows := [][2]string{
		{"ticks", fmt.Sprintf("%d", run.Ticks)},
		{"virtual time", fmt.Sprintf("%.2fs", run.Duration.Seconds())},
		{"transitions", fmt.Sprintf("%d", run.Transitions)},
		{"failed transitions", fmt.Sprintf("%d", run.FailedTransitions)},
		{"stall time", fmt.Sprintf("%.1fms", float64(run.StallTime)/float64(time.Millisecond))},
		{"busy time", fmt.Sprintf("%.2fs", run.BusyTime.Seconds())},
		{"energy", fmt.Sprintf("%.1fJ", run.EnergyJ)},
		{"avg power", fmt.Sprintf("%.2fW", run.AvgPowerW())},
		{"degradations", fmt.Sprintf("%d", run.DegradationTotal())},
	}
	if limitW > 0 {
		over, frac := run.IntervalsOver(limitW), 0.0
		if run.Ticks > 0 {
			frac = float64(over) / float64(run.Ticks)
		}
		rows = append(rows, [2]string{
			"violations", fmt.Sprintf("%d (%.1f%% of intervals over %.1fW)", over, frac*100, limitW),
		})
	}
	for _, r := range rows {
		if err := p("  %-20s %s\n", r[0], r[1]); err != nil {
			return err
		}
	}
	var total int64
	for _, n := range stageNanos {
		total += n
	}
	if total <= 0 {
		return nil
	}
	if err := p("  per-stage wall-clock (total %v):\n", time.Duration(total).Round(time.Microsecond)); err != nil {
		return err
	}
	for i, n := range stageNanos {
		if err := p("    %-10s %10v  %5.1f%%\n", machine.StageNames[i], time.Duration(n).Round(time.Microsecond), 100*float64(n)/float64(total)); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aapm-run:", err)
	os.Exit(1)
}
