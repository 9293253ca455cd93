package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aapm/internal/cluster"
	"aapm/internal/control"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/obs"
	"aapm/internal/sensor"
	"aapm/internal/serve"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// The serve workload: seeded open-loop Poisson arrivals over loopback
// HTTP to a serve.Service. The generator sustains about 1,200 jobs/s
// against it on a 2-CPU host; the benchmark offers a sixth of that,
// where latency tracks the service rather than queueing on a noisy
// host (at 600 jobs/s the run-to-run p50 varied twofold).
const (
	serveRatePerS    = 200.0
	serveLedgerS     = 8.0 // window of each traced-run variant
	serveDrainLimit  = 30 * time.Second
	serveRederiveMax = 40
)

// serveConfig is the service under test. The queue is deep enough that
// Poisson bursts at the offered rate are never refused.
func serveConfig(rate float64, reg *telemetry.Registry) serve.Config {
	cfg := serve.Config{
		QueueDepth:      1024,
		Workers:         runtime.NumCPU(),
		MaxJobs:         512,
		MaxResultBytes:  32 << 20,
		TenantWeights:   map[string]int{"acme": 2, "dunder": 1},
		Telemetry:       reg,
		TraceSampleRate: rate,
	}
	if rate > 0 {
		// Keep every sampled trace until the window's spans are read.
		cfg.MaxTraces = 1 << 16
	}
	return cfg
}

// service is a serve.Service behind a loopback HTTP listener.
type service struct {
	svc    *serve.Service
	srv    *http.Server
	base   string
	served chan error
}

// startService starts the service and waits until /healthz answers
// 200; the returned duration is the set-up time.
func startService(rate float64) (*service, time.Duration, error) {
	t0 := time.Now()
	reg := telemetry.NewRegistry()
	svc := serve.New(serveConfig(rate, reg))
	mux := http.NewServeMux()
	h := svc.Handler()
	mux.Handle("/api/", h)
	mux.Handle("/healthz", h)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w) // a failed write is the client's loss
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &service{svc: svc, srv: &http.Server{Handler: mux}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	for {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			_ = s.stop() // the health failure is the error to report
			return nil, 0, fmt.Errorf("service not healthy after 10s (last error %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	serr := s.svc.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// newClient is one keep-alive connection: the generator runs one per
// CPU, so it never holds more than nproc connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// scrape sums the samples of one metric family in /metrics.
func scrape(base, family string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if base, _, _ := strings.Cut(name, "{"); base != family {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, fmt.Errorf("metric %s: %w", name, err)
		}
		sum += v
	}
	return sum, nil
}

// serveSetup measures service start until /healthz returns 200.
func serveSetup(o opts) (childOut, error) {
	s, setup, err := startService(0)
	if err != nil {
		return childOut{}, err
	}
	if err := s.stop(); err != nil {
		return childOut{}, err
	}
	return childOut{Values: map[string]float64{"setup_s": setup.Seconds()}}, nil
}

// serveTraceRates are the sample variants' service trace sample rates.
// Every variant but plain also keeps the benchmark's own spans.
var serveTraceRates = map[string]float64{
	"plain":    0,
	"spans":    0,
	"rate1pct": 0.01,
	"rate100":  1,
}

func serveWindow(o opts) float64 {
	if o.variant == "plain" && o.traceID == "" {
		return o.seconds
	}
	return min(o.seconds, serveLedgerS)
}

// serveSample runs one open-loop window against a fresh service in
// its own process, so the generator and the service share the CPUs
// only through the OS scheduler. It then checks the outputs:
// duplicates byte-identical, a seeded sample of jobs re-derived
// in-process.
func serveSample(o opts) (childOut, error) {
	if _, ok := serveTraceRates[o.variant]; !ok {
		return childOut{}, fmt.Errorf("unknown serve variant %q", o.variant)
	}
	window := serveWindow(o)
	rate := serveRatePerS
	if o.small {
		rate = 100
	}
	jobs := makeSchedule(o.seed, rate, window)
	if len(jobs) == 0 {
		return childOut{}, fmt.Errorf("serve: a %gs window at %g jobs/s schedules no job", window, rate)
	}

	t0 := time.Now()
	srv, err := startServer(o)
	if err != nil {
		return childOut{}, err
	}
	defer srv.kill()
	g := &loadgen{base: srv.base, jobs: jobs}
	if o.traceID != "" {
		g.traceEvery = 4
	}
	g.run(runtime.NumCPU(), window, serveDrainLimit)
	last := t0
	for _, j := range jobs {
		if j.fetched.After(last) {
			last = j.fetched
		}
	}
	v := g.metrics()
	v["setup_s"] = srv.setup.Seconds()
	v["wall_s"] = last.Sub(t0).Seconds()
	if v["serve.rejected"], err = scrape(srv.base, "aapm_serve_jobs_rejected_total"); err != nil {
		return childOut{}, err
	}
	if v["serve.evicted"], err = scrape(srv.base, "aapm_serve_jobs_evicted_total"); err != nil {
		return childOut{}, err
	}
	if v["peak_rss_mb"], err = srv.stop(); err != nil {
		return childOut{}, err
	}

	out := childOut{Values: v, Attempted: len(jobs)}
	for _, j := range jobs {
		if j.err != "" {
			out.Failed++
			if out.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: serve job %d (%s): %s\n", j.idx, j.kind, j.err)
			}
		}
	}
	checked, bad := checkServe(o.seed, jobs)
	out.Attempted += checked
	out.Failed += bad
	d := newDigest()
	for _, j := range jobs {
		if j.dupOf < 0 {
			d.bytes([]byte(j.id))
			d.bytes(j.result[:])
		}
	}
	out.Digest = d.sum()
	if o.variant != "plain" {
		tr := newTracer(o.traceID, "serve-"+o.variant)
		root := tr.record("serve.window."+o.variant, o.parent, t0, last)
		tr.record("serve.setup", root, t0, t0.Add(srv.setup))
		g.spans(tr, root)
		out.Spans = tr.all()
	}
	return out, nil
}

// serverProc is the service's process, driven over its stdin: the
// service shuts down when stdin closes.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	base  string
	setup time.Duration
	done  bool
}

// serverReady is the line the server process prints once healthy.
type serverReady struct {
	Addr   string  `json:"addr"`
	SetupS float64 `json:"setup_s"`
}

func startServer(o opts) (*serverProc, error) {
	cmd := exec.Command(os.Args[0], "-child", "server", "-workload", "serve", "-variant", o.variant)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.out.ReadBytes('\n')
	var ready serverReady
	if err == nil {
		err = json.Unmarshal(line, &ready)
	}
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("serve: server process did not come up: %w", err)
	}
	p.base, p.setup = "http://"+ready.Addr, time.Duration(ready.SetupS*float64(time.Second))
	return p, nil
}

// stop closes the server's stdin, waits for it to exit and returns its
// peak RSS in MB.
func (p *serverProc) stop() (float64, error) {
	p.done = true
	p.stdin.Close()
	_, _ = io.Copy(io.Discard, p.out) // the server's closing report
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("serve: server process: %w", err)
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("serve: no rusage for the server process")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// kill ends a server that was not stopped, and waits for it.
func (p *serverProc) kill() {
	if p.done {
		return
	}
	p.done = true
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // reaps it; the kill is the error
}

// serveServer is the server process: it starts the service, reports
// its address and set-up time, and serves until stdin closes.
func serveServer(o opts) (childOut, error) {
	rate, ok := serveTraceRates[o.variant]
	if !ok {
		return childOut{}, fmt.Errorf("unknown serve variant %q", o.variant)
	}
	s, setup, err := startService(rate)
	if err != nil {
		return childOut{}, err
	}
	b, err := json.Marshal(serverReady{Addr: strings.TrimPrefix(s.base, "http://"), SetupS: setup.Seconds()})
	if err != nil {
		return childOut{}, err
	}
	if _, err := os.Stdout.Write(append(b, '\n')); err != nil {
		return childOut{}, err
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the generator closes stdin
	return childOut{}, s.stop()
}

// makeSchedule draws the window's jobs from the seed: Poisson arrivals
// at rate. Kinds come in shuffled blocks of 20 — 12 distinct single
// runs, 3 flat 8-node clusters, one 2-level 64-node fleet and 4
// duplicates of recent specs — and each kind cycles through a shuffled
// list of the suite workloads, so every seed offers the same mix.
// Tenants acme and dunder submit at 2:1.
func makeSchedule(seed int64, rate, seconds float64) []*jobRec {
	rng := rand.New(rand.NewSource(seed))
	names := spec.Names()
	block := []string{"dup", "dup", "dup", "dup", "cluster", "cluster", "cluster", "fleet"}
	for len(block) < 20 {
		block = append(block, "single")
	}
	cycle := map[string][]string{}
	next := func(kind string) string {
		if len(cycle[kind]) == 0 {
			cycle[kind] = append([]string(nil), names...)
			rng.Shuffle(len(names), func(a, b int) { cycle[kind][a], cycle[kind][b] = cycle[kind][b], cycle[kind][a] })
		}
		w := cycle[kind][0]
		cycle[kind] = cycle[kind][1:]
		return w
	}
	n := int(rate * seconds)
	jobs := make([]*jobRec, 0, n)
	var distinct []int
	var kinds []string
	var t float64
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		j := &jobRec{idx: i, due: time.Duration(t * float64(time.Second)), dupOf: -1}
		if len(kinds) == 0 {
			kinds = append([]string(nil), block...)
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		j.kind, kinds = kinds[0], kinds[1:]
		if j.kind == "dup" && len(distinct) == 0 {
			j.kind = "single"
		}
		if j.kind == "dup" {
			orig := jobs[distinct[len(distinct)-1-rng.Intn(min(256, len(distinct)))]]
			j.spec, j.kind, j.csv, j.dupOf = orig.spec, orig.kind, orig.csv, orig.idx
		} else {
			js := serve.JobSpec{
				Workload:   next(j.kind),
				Seed:       rng.Int63n(1 << 40),
				Iterations: 1,
				Tenant:     "acme",
			}
			if rng.Float64() < 1.0/3 {
				js.Tenant = "dunder"
			}
			if rng.Float64() < 0.3 {
				js.Chain = serve.ChainIdeal
			}
			switch j.kind {
			case "single":
				if rng.Float64() < 0.5 {
					js.Governor = fmt.Sprintf("pm:limit=%.1f", 10.5+float64(rng.Intn(8)))
				} else {
					js.Governor = fmt.Sprintf("ps:floor=%.1f", 0.2*float64(1+rng.Intn(4)))
				}
				j.csv = rng.Float64() < 0.25
			case "cluster":
				js.Nodes, js.BudgetW = 8, 8*13
			case "fleet":
				js.Nodes, js.Levels, js.Fanout, js.BudgetW = 64, 2, 8, 64*13
			}
			j.spec = js.Normalize()
			distinct = append(distinct, i)
		}
		b, err := json.Marshal(j.spec)
		if err != nil {
			panic(err) // a JobSpec holds only scalars
		}
		j.body = b
		jobs = append(jobs, j)
	}
	return jobs
}

// checkServe verifies the window's outputs: every duplicate's result is
// byte-identical to its original's, and a seeded sample of distinct
// jobs is re-derived by calling the same public entry points
// in-process. It returns the checks made and the mismatches.
func checkServe(seed int64, jobs []*jobRec) (checked, bad int) {
	for _, j := range jobs {
		if j.dupOf < 0 || j.err != "" || jobs[j.dupOf].err != "" {
			continue
		}
		checked++
		if j.result != jobs[j.dupOf].result {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: serve duplicate %d differs from job %d\n", j.idx, j.dupOf)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	var pool []*jobRec
	for _, j := range jobs {
		if j.dupOf < 0 && j.err == "" {
			pool = append(pool, j)
		}
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	for _, j := range pool[:min(serveRederiveMax, len(pool))] {
		checked++
		want, err := rederive(j)
		if err != nil || sha256.Sum256(want) != j.result {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: serve job %d (%s) does not re-derive (err %v)\n", j.idx, j.kind, err)
		}
	}
	return checked, bad
}

func chainOf(name string) sensor.Chain {
	if name == serve.ChainIdeal {
		return sensor.Chain{}
	}
	return sensor.NIDefault()
}

// rederive recomputes a job's result bytes from its spec without the
// service: the single-run path through the batch kernel, or the
// flat/hierarchical coordinator for cluster and fleet jobs.
func rederive(j *jobRec) ([]byte, error) {
	js := j.spec
	w, err := spec.ByName(js.Workload)
	if err != nil {
		return nil, err
	}
	w.Iterations = js.Iterations
	res := serve.Result{ID: js.ID(), Workload: js.Workload}
	switch j.kind {
	case "single":
		m, err := machine.New(machine.Config{Chain: chainOf(js.Chain), Seed: js.Seed})
		if err != nil {
			return nil, err
		}
		gov, err := control.Parse(js.Governor, m.Table())
		if err != nil {
			return nil, err
		}
		b, err := kernel.NewBatch([]kernel.BatchNode{{Machine: m, Workload: w, Governor: gov}}, kernel.BatchOptions{RetainTraces: true})
		if err != nil {
			return nil, err
		}
		if err := b.Run(); err != nil {
			return nil, err
		}
		run := b.Result(0)
		if j.csv {
			var buf bytes.Buffer
			err := run.WriteCSV(&buf)
			return buf.Bytes(), err
		}
		res = serve.Result{
			ID: res.ID, Workload: run.Workload, Policy: run.Policy,
			DurationSec: run.Duration.Seconds(), EnergyJ: run.EnergyJ,
			AvgPowerW: run.AvgPowerW(), Transitions: run.Transitions, Ticks: len(run.Rows),
		}
	case "cluster":
		nodes := make([]cluster.Node, js.Nodes)
		for i := range nodes {
			nodes[i] = cluster.Node{Name: fmt.Sprintf("%s-%d", js.Workload, i), Workload: w}
		}
		cr, err := cluster.Run(cluster.Config{BudgetW: js.BudgetW, Nodes: nodes, Seed: js.Seed, Chain: chainOf(js.Chain)})
		if err != nil {
			return nil, err
		}
		res.Policy = "cluster-pm"
		res.MakespanSec, res.MachineSeconds, res.PeakTotalW = cr.Makespan.Seconds(), cr.MachineSeconds, cr.PeakTotalW
		for i, run := range cr.Runs {
			res.Nodes = append(res.Nodes, nodeResult(cr.Names[i], run))
			res.EnergyJ += run.EnergyJ
			res.Transitions += run.Transitions
			res.Ticks += len(run.Rows)
		}
		res.DurationSec = cr.Makespan.Seconds()
	case "fleet":
		nodes := make([]cluster.Node, js.Nodes)
		for i := range nodes {
			nodes[i] = cluster.Node{Name: fmt.Sprintf("%s-%d", js.Workload, i), Workload: w}
		}
		fr, err := cluster.RunFleet(cluster.FleetConfig{
			BudgetW: js.BudgetW, Nodes: nodes, Seed: js.Seed, Chain: chainOf(js.Chain),
			Levels: js.Levels, Fanout: js.Fanout,
		})
		if err != nil {
			return nil, err
		}
		res.Policy = fmt.Sprintf("fleet-pm/L%d", fr.Levels)
		res.MakespanSec, res.MachineSeconds, res.PeakTotalW = fr.Makespan.Seconds(), fr.MachineSeconds, fr.PeakTotalW
		res.Ticks = int(fr.NodeTicks)
		for i, run := range fr.Runs {
			res.EnergyJ += run.EnergyJ
			res.Transitions += run.Transitions
			res.Nodes = append(res.Nodes, nodeResult(fr.Names[i], run))
		}
		res.DurationSec = fr.Makespan.Seconds()
	default:
		return nil, fmt.Errorf("unknown job kind %q", j.kind)
	}
	return json.Marshal(res)
}

func nodeResult(name string, run *trace.Run) serve.NodeResult {
	return serve.NodeResult{
		Name: name, DurationSec: run.Duration.Seconds(), EnergyJ: run.EnergyJ,
		AvgPowerW: run.AvgPowerW(), Transitions: run.Transitions,
	}
}

// serveProbes measures the cost of observation on a single run: ns per
// tick of one suite workload stepped through kernel.NewBatch with a
// serve job's two hooks, against the same spec with none.
func serveProbes(o opts) (childOut, error) {
	tr := newTracer(o.traceID, "serveprobe")
	root := tr.begin("serve.probes", o.parent)
	defer tr.end(root)
	w, err := spec.ByName("ammp")
	if err != nil {
		return childOut{}, err
	}
	reps := 12
	if o.small {
		reps = 2
	}
	reg := telemetry.NewRegistry()
	perTick := map[bool][]float64{}
	for r := 0; r < 2*reps; r++ {
		hooked := r%2 == 1
		name := "kernel.run_plain"
		if hooked {
			name = "kernel.run_hooked"
		}
		sp := tr.begin(name, root)
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: o.seed})
		if err != nil {
			return childOut{}, err
		}
		gov, err := control.Parse("pm:limit=14.5", m.Table())
		if err != nil {
			return childOut{}, err
		}
		bo := kernel.BatchOptions{RetainTraces: true}
		if hooked {
			bo.Hooks = func(int) []machine.Hook {
				return []machine.Hook{newProgressStandIn(25), telemetry.NewObserver(reg, w.Name, gov.Name())}
			}
		}
		b, err := kernel.NewBatch([]kernel.BatchNode{{Machine: m, Workload: w, Governor: gov}}, bo)
		if err != nil {
			return childOut{}, err
		}
		if want := map[bool]string{false: "pm", true: "generic"}[hooked]; b.Kind() != want {
			return childOut{}, fmt.Errorf("single run stepped on the %q body, want %q", b.Kind(), want)
		}
		t := time.Now()
		for b.StepNode(0) {
		}
		el := time.Since(t)
		if err := b.NodeErr(0); err != nil {
			return childOut{}, err
		}
		perTick[hooked] = append(perTick[hooked], float64(el.Nanoseconds())/float64(len(b.Result(0).Rows)))
		tr.end(sp)
	}
	return childOut{
		Values:    map[string]float64{"kernel.demotion_ratio": median(perTick[true]) / median(perTick[false])},
		Attempted: 1,
		Spans:     tr.all(),
	}, nil
}

// progressStandIn does what the run service's (unexported) progress
// hook does per tick: every nth interval it marshals one progress line
// into a bounded ring, and it notes transitions in a flight recorder.
type progressStandIn struct {
	machine.BaseHook
	every  int
	ring   [][]byte
	next   int
	flight *obs.FlightRecorder
}

func newProgressStandIn(every int) *progressStandIn {
	return &progressStandIn{every: every, ring: make([][]byte, 256), flight: obs.NewFlightRecorder(128)}
}

func (h *progressStandIn) OnTick(ts machine.TickState) {
	if !ts.Final && ts.Tick%h.every != 0 {
		return
	}
	b, err := json.Marshal(map[string]any{
		"type": "tick", "tick": ts.Tick, "freq_mhz": ts.PState.FreqMHz,
		"power_w": ts.MeasuredPowerW, "phase": ts.Phase,
	})
	if err != nil {
		return
	}
	h.ring[h.next%len(h.ring)] = b
	h.next++
}

func (h *progressStandIn) OnTransition(tr machine.Transition) {
	h.flight.Note(obs.FlightEvent{Kind: "transition", Detail: fmt.Sprintf("p%d->p%d ok=%t", tr.From, tr.To, tr.OK)})
}

// serveLedger runs the serve window four ways — tracing off, benchmark
// spans on, and service trace sampling at 1% and 100% — plus the
// demotion probe, each in a fresh process.
func serveLedger(o opts, root *tracer) (ledgerOut, error) {
	// Traced windows are shorter than the recorded ones: the variants
	// are checked against each other only.
	l := ledgerOut{values: map[string]float64{}}
	got, err := l.spawnVariants(o, root, &reference{}, "plain", "spans", "rate1pct", "rate100")
	if err != nil {
		return l, err
	}
	vo := o
	vo.variant = "probes"
	probes, err := l.spawnTraced(root, "probes", vo)
	if err != nil {
		return l, err
	}
	l.values["kernel.demotion_ratio"] = probes.Values["kernel.demotion_ratio"]
	for k, v := range got["spans"].Values {
		if strings.HasPrefix(k, "serve.") || strings.HasPrefix(k, "loadgen.") {
			l.values[k] = v
		}
	}
	l.values["serve.queue_wait_p99_ms"] = got["rate100"].Values["serve.queue_wait_p99_ms"]
	base := got["spans"].Values["job_p50_ms"]
	l.values["obs.serve_overhead_frac"] = got["rate100"].Values["job_p50_ms"]/base - 1
	l.values["obs.serve_overhead_frac_1pct"] = got["rate1pct"].Values["job_p50_ms"]/base - 1
	l.values["bench.serve_trace_overhead_frac"] = base/got["plain"].Values["job_p50_ms"] - 1
	return l, nil
}
