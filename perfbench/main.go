// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks the workload's simulated outputs, and
// prints every end-to-end metric with its unit as the last line of
// standard output. With -trace 1 it runs the layer ledger instead: the
// workloads again, with spans recorded around each call into a layer,
// and prints the per-layer metrics.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload fleet|paper|serve --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --selftest
//
// Every measured sample runs in a fresh child process of this binary,
// so process-wide memos (mloops.TrainingSet) and the garbage of a
// 100k-node fleet never leak from one sample into the next.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload. A
// "job" is the unit of work a workload is made of: one lockstep tick
// of the whole fleet, one table or figure of the paper, one submitted
// run-service job. Its latency runs from when it was due (the previous
// tick's end; the start of the run; the job's scheduled arrival) until
// its result is in hand.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (the layer ledger).
var perLayer = []metricDef{
	// fleet
	{"machine.new_s", "s"},
	{"kernel.new_batch_s", "s"},
	{"kernel.pm_ns_per_node_tick", "ns"},
	{"cluster.construct_s", "s"},
	{"cluster.tick_p99_ms", "ms"},
	{"cluster.shard_step_s", "s"},
	{"cluster.coord_s", "s"},
	{"cluster.barrier_wait_s", "s"},
	{"cluster.finish_s", "s"},
	{"cluster.worker_speedup", "ratio"},
	{"cluster.epochs", "count"},
	{"cluster.node_ticks", "count"},
	{"cluster.node_ticks_per_s", "1/s"},
	{"alloc.allocate_us_per_epoch", "us"},
	{"telemetry.fleet_overhead_frac", "ratio"},
	{"obs.fleet_overhead_frac", "ratio"},
	{"bench.fleet_unattributed_frac", "ratio"},
	{"bench.fleet_trace_overhead_frac", "ratio"},
	// paper
	{"mloops.characterize_s", "s"},
	{"kernel.hierarchy_ns_per_access", "ns"},
	{"kernel.accesses", "count"},
	{"model.collect_s", "s"},
	{"model.fit_s", "s"},
	{"experiment.sweep_s", "s"},
	{"experiment.run_ns_per_tick", "ns"},
	{"experiment.runs", "count"},
	{"bench.paper_unattributed_frac", "ratio"},
	{"bench.paper_trace_overhead_frac", "ratio"},
	// serve
	{"serve.job_p99_ms", "ms"},
	{"serve.submit_p99_ms", "ms"},
	{"serve.submit_new_p99_ms", "ms"},
	{"serve.submit_hit_p99_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.single_run_p50_ms", "ms"},
	{"serve.cluster_run_p50_ms", "ms"},
	{"serve.fleet_run_p50_ms", "ms"},
	{"serve.status_p99_ms", "ms"},
	{"serve.result_p99_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.evicted", "count"},
	{"kernel.demotion_ratio", "ratio"},
	{"obs.serve_overhead_frac", "ratio"},
	{"obs.serve_overhead_frac_1pct", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"bench.serve_trace_overhead_frac", "ratio"},
}

var workloads = []string{"fleet", "paper", "serve"}

// opts are the settings a run (and each of its children) works from.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	variant  string
	traceID  string
	parent   string
	// corrupt flips the reference digest, so a self-test can prove a
	// mismatch is counted as a failure.
	corrupt bool
	// small shrinks every workload for the self-test.
	small bool
}

// childOut is what a child process reports on its standard output.
type childOut struct {
	Err       string             `json:"err,omitempty"`
	Values    map[string]float64 `json:"values"`
	Digest    string             `json:"digest,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Spans     []span             `json:"spans,omitempty"`
	// RSSMB is filled in by the parent from the child's rusage.
	RSSMB float64       `json:"-"`
	Wall  time.Duration `json:"-"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o opts
	var trace int
	var child string
	var selftest bool
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, paper or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: the traced per-layer ledger")
	flag.BoolVar(&selftest, "selftest", false, "check metric names, units and failure counting on shrunken workloads")
	flag.StringVar(&child, "child", "", "internal: run one child step (setup, sample, probes, pairs, server)")
	flag.StringVar(&o.variant, "variant", "plain", "internal: sample variant")
	flag.StringVar(&o.traceID, "trace-id", "", "internal: trace ID for recorded spans")
	flag.StringVar(&o.parent, "parent-span", "", "internal: parent span ID")
	flag.BoolVar(&o.small, "small", false, "internal: shrink the workload (self-test)")
	flag.Parse()

	if child != "" {
		out := runChild(child, o)
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(append(b, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench selftest: ok")
		return
	}
	if !validWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fleet, paper or serve)\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	var res runOut
	var err error
	if trace == 1 {
		res, err = runLedger(o)
	} else {
		res, err = runEndToEnd(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, res)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func validWorkload(w string) bool {
	for _, n := range workloads {
		if n == w {
			return true
		}
	}
	return false
}

// runChild executes one child step in this process.
func runChild(kind string, o opts) childOut {
	var out childOut
	var err error
	switch kind + "/" + o.workload {
	case "setup/fleet":
		out, err = fleetSetup(o)
	case "sample/fleet":
		out, err = fleetSample(o)
	case "probes/fleet":
		out, err = fleetProbes(o)
	case "pairs/fleet":
		out, err = fleetPairs(o)
	case "setup/paper":
		out, err = paperSetup(o)
	case "sample/paper":
		out, err = paperSample(o)
	case "setup/serve":
		out, err = serveSetup(o)
	case "sample/serve":
		out, err = serveSample(o)
	case "probes/serve":
		out, err = serveProbes(o)
	case "server/serve":
		out, err = serveServer(o)
	default:
		err = fmt.Errorf("unknown child step %s", kind+"/"+o.workload)
	}
	if err != nil {
		out.Err = err.Error()
		out.Attempted++
		out.Failed++
	}
	for k, v := range out.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(out.Values, k) // nothing was measured
		}
	}
	return out
}

// spawn runs one child step in a fresh process and returns its report,
// with the child's peak RSS and wall time filled in.
func spawn(kind string, o opts) (childOut, error) {
	args := []string{
		"-child", kind, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
		"-variant", o.variant,
	}
	if o.traceID != "" {
		args = append(args, "-trace-id", o.traceID, "-parent-span", o.parent)
	}
	if o.small {
		args = append(args, "-small")
	}
	cmd := exec.Command(os.Args[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childOut{}, fmt.Errorf("%s %s (%s): %w", kind, o.workload, o.variant, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return childOut{}, fmt.Errorf("%s %s: bad child report: %w", kind, o.workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	out.Wall = wall
	if out.Err != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s (%s): %s\n", kind, o.workload, o.variant, out.Err)
	}
	return out, nil
}

// sampleCost bounds how many samples and set-ups one run takes.
type sampleCost struct {
	minSamples int
	setups     int
}

var costs = map[string]sampleCost{
	"fleet": {minSamples: 3, setups: 4},
	"paper": {minSamples: 2, setups: 15},
	"serve": {minSamples: 1, setups: 15},
}

// runEndToEnd measures one workload with tracing off: several fresh
// set-ups, then fresh-process samples until the run's time is spent.
// Each metric is the median over samples.
func runEndToEnd(o opts) (runOut, error) {
	ref, err := loadReference()
	if err != nil {
		return runOut{}, err
	}
	c := costs[o.workload]
	var attempted, failed int
	var setups []float64
	for i := 0; i < c.setups; i++ {
		out, err := spawn("setup", o)
		if err != nil {
			return runOut{}, err
		}
		attempted += out.Attempted
		failed += out.Failed
		if v, ok := out.Values["setup_s"]; ok {
			setups = append(setups, v)
		}
	}
	start := time.Now()
	var samples []childOut
	var last time.Duration
	for len(samples) < c.minSamples || time.Since(start)+last <= time.Duration(o.seconds*float64(time.Second)) {
		out, err := spawn("sample", o)
		if err != nil {
			return runOut{}, err
		}
		samples = append(samples, out)
		last = out.Wall
		if o.workload == "serve" {
			break // one window of --seconds is the serve sample
		}
	}
	per := map[string][]float64{}
	for _, s := range samples {
		attempted += s.Attempted
		failed += s.Failed
		if s.Err == "" {
			if ok := checkDigest(ref, o, s.Digest, samples[0].Digest); !ok {
				failed++
			}
			attempted++
		}
		if _, ok := s.Values["peak_rss_mb"]; !ok {
			// The sample process did the work itself.
			per["peak_rss_mb"] = append(per["peak_rss_mb"], s.RSSMB)
		}
		for k, v := range s.Values {
			per[k] = append(per[k], v)
		}
	}
	setups = append(setups, per["setup_s"]...)
	per["setup_s"] = setups
	res := runOut{Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range endToEnd {
		vs := per[m.name]
		if len(vs) == 0 {
			return runOut{}, fmt.Errorf("%s: no measurement of %s (every sample failed?)", o.workload, m.name)
		}
		res.Metrics[m.name] = metricOut{Value: median(vs), Unit: m.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// checkDigest compares a sample's output digest with the recorded
// reference for this seed (when there is one) and with the run's first
// sample, which made the same inputs.
func checkDigest(ref *reference, o opts, got, first string) bool {
	if got == "" || got != first {
		return false
	}
	want, ok := ref.lookup(o)
	if o.corrupt {
		want, ok = "corrupted-"+want, true
	}
	return !ok || got == want
}

// runLedger is the traced run: every workload's layers, each workload
// under its own trace ID, with the named workload first. All spans are
// written to .bench_build/traces when the run ends.
func runLedger(o opts) (runOut, error) {
	order := []string{o.workload}
	for _, w := range workloads {
		if w != o.workload {
			order = append(order, w)
		}
	}
	res := runOut{Metrics: map[string]metricOut{}}
	values := map[string]float64{}
	for _, w := range order {
		wo := o
		wo.workload = w
		wo.traceID = fmt.Sprintf("%s-seed%d-%d", w, o.seed, time.Now().UnixNano())
		root := newTracer(wo.traceID, "p")
		var out ledgerOut
		var err error
		switch w {
		case "fleet":
			out, err = fleetLedger(wo, root)
		case "paper":
			out, err = paperLedger(wo, root)
		case "serve":
			out, err = serveLedger(wo, root)
		}
		if err != nil {
			return runOut{}, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		for k, v := range out.values {
			values[k] = v
		}
		path, err := writeTrace(".bench_build/traces", wo.traceID, append(root.all(), out.spans...))
		if err != nil {
			return runOut{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s spans written to %s\n", w, path)
	}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return runOut{}, fmt.Errorf("ledger produced no %s", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// ledgerOut collects one workload's per-layer values and spans.
type ledgerOut struct {
	values            map[string]float64
	spans             []span
	attempted, failed int
}

// spawnVariants runs one sample per variant, each in a fresh process,
// and checks that every variant's outputs match the first's and, where
// ref records this seed, the reference.
func (l *ledgerOut) spawnVariants(o opts, root *tracer, ref *reference, variants ...string) (map[string]childOut, error) {
	got := map[string]childOut{}
	for _, variant := range variants {
		vo := o
		vo.variant = variant
		out, err := l.spawnTraced(root, "sample", vo)
		if err != nil {
			return nil, err
		}
		first := got[variants[0]].Digest
		if variant == variants[0] {
			first = out.Digest
		}
		if out.Err == "" {
			l.attempted++
			if !checkDigest(ref, vo, out.Digest, first) {
				l.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s %s digest %s does not match (first %s)\n", o.workload, variant, out.Digest, first)
			}
		}
		got[variant] = out
	}
	return got, nil
}

// spawnTraced runs one ledger child under a parent span and folds its
// report into l.
func (l *ledgerOut) spawnTraced(root *tracer, kind string, o opts) (childOut, error) {
	o.parent = root.begin("bench.child."+kind+"."+o.variant, "")
	out, err := spawn(kind, o)
	root.end(o.parent)
	if err != nil {
		return childOut{}, err
	}
	l.attempted += out.Attempted
	l.failed += out.Failed
	l.spans = append(l.spans, out.Spans...)
	return out, nil
}

func printTable(w *os.File, res runOut) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v (GOMAXPROCS %d)\n", res.Attempted, res.Failed, res.Correct, runtime.GOMAXPROCS(0))
}

// reference holds recorded output digests: workload -> key -> digest,
// where the key is the seed (fleet, paper) or seed:seconds (serve), or
// "any" for outputs no seed changes; "small:" prefixes the self-test's
// shrunken sizes.
type reference struct {
	Digests map[string]map[string]string `json:"digests"`
}

const referencePath = "perfbench/baseline.json"

func loadReference() (*reference, error) {
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", referencePath, err)
	}
	if r.Digests == nil {
		return nil, errors.New(referencePath + " has no digests")
	}
	return &r, nil
}

func (r *reference) lookup(o opts) (string, bool) {
	k := strconv.FormatInt(o.seed, 10)
	if o.workload == "serve" {
		k = fmt.Sprintf("%d:%g", o.seed, o.seconds)
	}
	prefix := ""
	if o.small {
		prefix = "small:"
	}
	if d, ok := r.Digests[o.workload][prefix+k]; ok {
		return d, true
	}
	d, ok := r.Digests[o.workload][prefix+"any"]
	return d, ok
}
