// Command aapm-eval regenerates the paper's tables and figures — and
// the extension studies — on the simulated platform and prints them.
//
// Usage:
//
//	aapm-eval [-seed N] [-scale N] [-repeats N] [-par N] [-exp list]
//	          [-markdown] [-list]
//
// -exp selects a comma-separated subset by registry name (see -list);
// the default runs everything. -markdown emits one consolidated report
// instead of per-experiment text.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"aapm/internal/experiment"
	"aapm/internal/machine"
	"aapm/internal/report"
	"aapm/internal/telemetry"
)

func main() {
	seed := flag.Int64("seed", 7, "simulation seed")
	scale := flag.Int("scale", 1, "divide workload lengths by N for quicker runs")
	repeats := flag.Int("repeats", 1, "runs per configuration; median reported (paper uses 3)")
	par := flag.Int("par", 0, "bound on concurrent runs and cluster stepping workers (0 = GOMAXPROCS)")
	exps := flag.String("exp", "", "comma-separated experiment subset (default: all)")
	markdown := flag.Bool("markdown", false, "emit a single markdown report instead of per-experiment text")
	traceOut := flag.String("trace-out", "", "write every run's intervals as one Chrome trace-event JSON file (load in Perfetto)")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		entries := experiment.Registry()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
		for _, e := range entries {
			fmt.Printf("%-18s %s\n", e.Name, e.Describe)
		}
		return
	}

	opts := experiment.Options{
		Seed: *seed, ScaleDown: *scale, Repeats: *repeats, Parallelism: *par,
	}
	var tw *telemetry.TraceEventWriter
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		tw = telemetry.NewTraceEventWriter(tf)
		defer func() {
			if err := tw.Close(); err != nil {
				fatal(err)
			}
			if err := tf.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace events written to %s (%d events)\n", *traceOut, tw.Events())
		}()
		// Every run becomes its own process track in the trace; the
		// writer is concurrency-safe, so parallel runs interleave fine.
		opts.Observer = func(workload, policy string) machine.Hook {
			return tw.RunHook(workload, policy)
		}
	}
	ctx, err := experiment.NewContext(opts)
	if err != nil {
		fatal(err)
	}
	if *markdown {
		if err := report.Generate(ctx, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	if *exps != "" {
		for _, e := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}
	known := map[string]bool{}
	names := make([]string, 0, len(experiment.Registry()))
	for _, e := range experiment.Registry() {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	sort.Strings(names)
	for name := range want {
		if !known[name] {
			fatal(fmt.Errorf("unknown experiment %q; available: %s", name, strings.Join(names, ", ")))
		}
	}
	for _, e := range experiment.Registry() {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		res, err := e.Run(ctx)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Printf("==== %s ====\n", e.Name)
		if err := res.Print(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aapm-eval:", err)
	os.Exit(1)
}
