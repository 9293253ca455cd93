package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"aapm/internal/alloc"
	"aapm/internal/cluster"
	"aapm/internal/control"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/obs"
	"aapm/internal/power"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
)

// The fleet workload: cluster.RunFleet over cluster.SyntheticFleet,
// three allocation levels at fanout 64, the ideal measurement chain,
// one stepping worker per CPU. Nodes are sized to retire in about
// fleetTicks intervals, so a run has fleetTicks/50 reallocation epochs.
const (
	fleetNodes       = 100_000
	fleetTicks       = 300
	fleetLevels      = 3
	fleetFanout      = 64
	fleetBudgetPerW  = 30.0
	fleetFloorW      = 4.0
	fleetProbeTicks  = 40
	fleetAllocEpochs = 30
	fleetPairRounds  = 4
)

func fleetSize(o opts) (nodes, ticks int) {
	if o.small {
		return 3_000, 60
	}
	return fleetNodes, fleetTicks
}

// tickClock is the run's context. RunFleetContext consults Err once
// before every lockstep tick on its coordinator goroutine, so the call
// times mark the end of construction and the start of each tick from
// outside the program. With stop set, the first call cancels the run:
// a set-up-only measurement.
type tickClock struct {
	context.Context
	stop bool

	mu    sync.Mutex
	ticks []time.Time
}

func newTickClock(stop bool) *tickClock {
	return &tickClock{Context: context.Background(), stop: stop, ticks: make([]time.Time, 0, 1024)}
}

func (c *tickClock) Err() error {
	now := time.Now()
	c.mu.Lock()
	c.ticks = append(c.ticks, now)
	c.mu.Unlock()
	if c.stop {
		return context.Canceled
	}
	return nil
}

func fleetConfig(o opts, nodes []cluster.Node, workers int) cluster.FleetConfig {
	return cluster.FleetConfig{
		BudgetW: fleetBudgetPerW * float64(len(nodes)),
		Nodes:   nodes,
		Seed:    o.seed,
		Chain:   sensor.Chain{}, // ideal
		Levels:  fleetLevels,
		Fanout:  fleetFanout,
		Workers: workers,
	}
}

// fleetSetup measures the construction RunFleet does before its first
// tick, cancelling the run there.
func fleetSetup(o opts) (childOut, error) {
	n, ticks := fleetSize(o)
	t0 := time.Now()
	nodes := cluster.SyntheticFleet(n, ticks)
	clock := newTickClock(true)
	_, err := cluster.RunFleetContext(clock, fleetConfig(o, nodes, runtime.NumCPU()))
	if !errors.Is(err, context.Canceled) || len(clock.ticks) == 0 {
		return childOut{}, fmt.Errorf("fleet set-up: want a run cancelled at its first tick, got %v", err)
	}
	return childOut{Values: map[string]float64{"setup_s": clock.ticks[0].Sub(t0).Seconds()}}, nil
}

// fleetRun runs one fleet under a variant's configuration: plain and
// traced as configured, workers1 with one stepping worker, telemetry
// with a telemetry.Registry attached, obs under a 100%-sampled obs
// trace. The returned clock marks the start of every tick.
func fleetRun(o opts, variant string, nodes []cluster.Node) (*cluster.FleetResult, *tickClock, error) {
	workers := runtime.NumCPU()
	if variant == "workers1" {
		workers = 1
	}
	clock := newTickClock(false)
	var ctx context.Context = clock
	cfg := fleetConfig(o, nodes, workers)
	switch variant {
	case "telemetry":
		cfg.Telemetry = telemetry.NewRegistry()
	case "obs":
		t := obs.NewTracer(obs.Config{SampleRate: 1})
		ctx = obs.NewContext(ctx, t.Start("fleet-bench", "", nil))
	}
	res, err := cluster.RunFleetContext(ctx, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet run: %w", err)
	}
	if len(clock.ticks) < 2 {
		return nil, nil, fmt.Errorf("fleet run made %d ticks", len(clock.ticks))
	}
	if res.Nodes != len(nodes) || res.Epochs == 0 || res.NodeTicks < int64(len(nodes)) {
		return nil, nil, fmt.Errorf("fleet result implausible: %d nodes, %d epochs, %d node-ticks", res.Nodes, res.Epochs, res.NodeTicks)
	}
	return res, clock, nil
}

// fleetDigest folds every node's energy, duration and transitions with
// the epoch and node-tick counts.
func fleetDigest(res *cluster.FleetResult) string {
	d := newDigest()
	for _, r := range res.Runs {
		d.float(r.EnergyJ)
		d.int(int64(r.Duration))
		d.int(int64(r.Transitions))
	}
	d.int(int64(res.Epochs))
	d.int(res.NodeTicks)
	return d.sum()
}

// fleetSample runs the whole fleet once: the plain end-to-end sample,
// or the traced one with benchmark spans.
func fleetSample(o opts) (childOut, error) {
	n, ticks := fleetSize(o)
	var tr *tracer
	if o.variant == "traced" {
		tr = newTracer(o.traceID, "fleet")
	}
	t0 := time.Now()
	root := tr.begin("fleet.sample", o.parent)
	sp := tr.begin("cluster.synthetic_fleet", root)
	nodes := cluster.SyntheticFleet(n, ticks)
	tr.end(sp)
	synthEnd := time.Now()
	call := time.Now()
	res, clock, err := fleetRun(o, o.variant, nodes)
	ret := time.Now()
	if err != nil {
		return childOut{}, err
	}
	first, last := clock.ticks[0], clock.ticks[len(clock.ticks)-1]
	if tr != nil {
		run := tr.record("cluster.run_fleet", root, call, ret)
		tr.record("cluster.construct", run, call, first)
		tr.record("cluster.ticks", run, first, last)
		tr.record("cluster.finish", run, last, ret)
		tr.end(root)
	}

	wall := ret.Sub(t0)
	setup := first.Sub(t0)
	stepping := last.Sub(first)
	var shard time.Duration
	for _, w := range res.WorkerWall {
		shard = max(shard, w.Total)
	}
	tickMs := make([]float64, 0, len(clock.ticks))
	for i := 1; i < len(clock.ticks); i++ {
		tickMs = append(tickMs, ms(clock.ticks[i].Sub(clock.ticks[i-1])))
	}
	attributed := synthEnd.Sub(t0) + ret.Sub(call)
	v := map[string]float64{
		"setup_s":                       setup.Seconds(),
		"wall_s":                        wall.Seconds(),
		"jobs_per_s":                    float64(res.Intervals) / (wall - setup).Seconds(),
		"job_p50_ms":                    quantile(tickMs, 0.5),
		"cluster.tick_p99_ms":           quantile(tickMs, 0.99),
		"cluster.construct_s":           first.Sub(call).Seconds(),
		"cluster.shard_step_s":          shard.Seconds(),
		"cluster.coord_s":               res.CoordWall.Total.Seconds(),
		"cluster.barrier_wait_s":        (stepping - shard - res.CoordWall.Total).Seconds(),
		"cluster.finish_s":              ret.Sub(last).Seconds(),
		"cluster.epochs":                float64(res.Epochs),
		"cluster.node_ticks":            float64(res.NodeTicks),
		"cluster.node_ticks_per_s":      float64(res.NodeTicks) / (wall - setup).Seconds(),
		"bench.fleet_unattributed_frac": (wall - attributed).Seconds() / wall.Seconds(),
	}
	sp = tr.begin("bench.check", "")
	digest := fleetDigest(res)
	tr.end(sp)
	return childOut{Values: v, Digest: digest, Spans: tr.all()}, nil
}

// fleetPairs measures worker scaling and the cost of observation in
// one process: one-epoch runs of the full population, the variants
// alternated in rotating order for fleetPairRounds rounds with a
// collection forced before each run, so host speed drifts cancel
// within a round. Each variant's stepping wall is divided by the plain
// run of its round, and the median ratio reported. Every run must
// produce the plain run's outputs.
func fleetPairs(o opts) (childOut, error) {
	n, ticks := fleetSize(o)
	ticks = max(ticks/5, 60) // one reallocation epoch
	tr := newTracer(o.traceID, "fleetpairs")
	root := tr.begin("fleet.pairs", o.parent)
	defer tr.end(root)
	variants := []string{"plain", "workers1", "telemetry", "obs"}
	out := childOut{Values: map[string]float64{}}
	ratio := map[string][]float64{}
	var want string
	for r := 0; r < fleetPairRounds; r++ {
		step := map[string]float64{}
		for i := range variants {
			v := variants[(i+r)%len(variants)]
			runtime.GC()
			nodes := cluster.SyntheticFleet(n, ticks)
			sp := tr.begin("cluster.run_fleet."+v, root)
			res, clock, err := fleetRun(o, v, nodes)
			tr.end(sp)
			if err != nil {
				return childOut{}, fmt.Errorf("%s: %w", v, err)
			}
			step[v] = clock.ticks[len(clock.ticks)-1].Sub(clock.ticks[0]).Seconds()
			out.Attempted++
			if d := fleetDigest(res); want == "" {
				want = d
			} else if d != want {
				out.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: fleet %s outputs differ from the first run's\n", v)
			}
		}
		for _, v := range variants[1:] {
			ratio[v] = append(ratio[v], step[v]/step["plain"])
		}
	}
	out.Values["cluster.worker_speedup"] = median(ratio["workers1"])
	out.Values["telemetry.fleet_overhead_frac"] = median(ratio["telemetry"]) - 1
	out.Values["obs.fleet_overhead_frac"] = median(ratio["obs"]) - 1
	out.Spans = tr.all()
	return out, nil
}

// fleetProbes times the fleet's layers one at a time, outside the
// coordinator: per-node construction, batch construction, the batch
// kernel's pm body stepped bare, and one top-down allocation epoch.
func fleetProbes(o opts) (childOut, error) {
	n, ticks := fleetSize(o)
	tr := newTracer(o.traceID, "fleetprobe")
	root := tr.begin("fleet.probes", o.parent)
	defer tr.end(root)
	nodes := cluster.SyntheticFleet(n, ticks)
	truth := power.PentiumM755Truth()

	sp := tr.begin("machine.new", root)
	t := time.Now()
	bnodes := make([]kernel.BatchNode, n)
	for i, node := range nodes {
		m, err := machine.New(machine.Config{Truth: truth, Chain: sensor.Chain{}, Seed: o.seed + int64(i)*7919})
		if err != nil {
			return childOut{}, err
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: fleetBudgetPerW, FeedbackGain: 0.25})
		if err != nil {
			return childOut{}, err
		}
		bnodes[i] = kernel.BatchNode{Machine: m, Workload: node.Workload, Governor: pm}
	}
	newS := time.Since(t).Seconds()
	tr.end(sp)

	sp = tr.begin("kernel.new_batch", root)
	t = time.Now()
	bs, err := kernel.NewBatch(bnodes, kernel.BatchOptions{})
	if err != nil {
		return childOut{}, err
	}
	batchS := time.Since(t).Seconds()
	tr.end(sp)
	if bs.Kind() != "pm" {
		return childOut{}, fmt.Errorf("fleet batch stepped on the %q body, want pm", bs.Kind())
	}

	sp = tr.begin("kernel.step_all", root)
	t = time.Now()
	for k := 0; k < fleetProbeTicks; k++ {
		if !bs.StepAll() {
			return childOut{}, fmt.Errorf("fleet retired within %d probe ticks", k)
		}
	}
	stepNs := float64(time.Since(t).Nanoseconds()) / float64(n*fleetProbeTicks)
	tr.end(sp)
	if err := bs.Err(); err != nil {
		return childOut{}, err
	}

	sp = tr.begin("alloc.allocate", root)
	allocUs := allocProbe(n, o.seed)
	tr.end(sp)
	return childOut{Values: map[string]float64{
		"machine.new_s":               newS,
		"kernel.new_batch_s":          batchS,
		"kernel.pm_ns_per_node_tick":  stepNs,
		"alloc.allocate_us_per_epoch": allocUs,
	}, Attempted: 1, Spans: tr.all()}, nil
}

// probeLeaf and probeGroup are the benchmark's own alloc.Aggregate
// summaries: seeded leaf demands and their bottom-up group sums.
type probeLeaf struct{ desire, power, held float64 }

func (l *probeLeaf) Active() bool                { return true }
func (l *probeLeaf) Stale() bool                 { return false }
func (l *probeLeaf) HeldW() float64              { return l.held }
func (l *probeLeaf) DesireW() float64            { return l.desire }
func (l *probeLeaf) RecentPowerW() float64       { return l.power }
func (l *probeLeaf) RecentDPC() float64          { return 0 }
func (l *probeLeaf) MinW(floorW float64) float64 { return floorW }

type probeGroup struct{ ask, min float64 }

func (g *probeGroup) Active() bool          { return true }
func (g *probeGroup) Stale() bool           { return false }
func (g *probeGroup) HeldW() float64        { return 0 }
func (g *probeGroup) DesireW() float64      { return g.ask }
func (g *probeGroup) RecentPowerW() float64 { return 0 }
func (g *probeGroup) RecentDPC() float64    { return 0 }
func (g *probeGroup) MinW(float64) float64  { return g.min }

// allocProbe builds n seeded leaves under fleetLevels-1 tiers of
// fanout-64 groups (1,563 and 25 groups at 100k leaves) and returns
// the median wall of one top-down Allocate pass, in microseconds.
func allocProbe(n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	leaves := make([]probeLeaf, n)
	kids := make([][]alloc.Aggregate, fleetLevels)
	kids[0] = make([]alloc.Aggregate, n)
	for i := range leaves {
		d := 8 + 24*rng.Float64()
		leaves[i] = probeLeaf{desire: d, power: 0.9 * d, held: fleetBudgetPerW}
		kids[0][i] = &leaves[i]
	}
	var pol alloc.Allocator
	for l := 1; l < fleetLevels; l++ {
		below := kids[l-1]
		groups := make([]probeGroup, (len(below)+fleetFanout-1)/fleetFanout)
		kids[l] = make([]alloc.Aggregate, len(groups))
		for g := range groups {
			for _, c := range below[g*fleetFanout : min((g+1)*fleetFanout, len(below))] {
				groups[g].min += c.MinW(fleetFloorW)
				groups[g].ask += pol.EffectiveDesireW(c, fleetFloorW)
			}
			kids[l][g] = &groups[g]
		}
	}
	als := make([]alloc.Allocator, fleetLevels)
	for l := range als {
		als[l].MarginW = alloc.DefaultMarginW
	}
	var distribute func(l, lo, hi int, budget float64)
	distribute = func(l, lo, hi int, budget float64) {
		if l == 0 {
			als[0].Allocate(budget, fleetFloorW, kids[0][lo:hi], func(k int, w float64) { leaves[lo+k].held = w })
			return
		}
		als[l].Allocate(budget, fleetFloorW, kids[l][lo:hi], func(k int, w float64) {
			g := lo + k
			distribute(l-1, g*fleetFanout, min((g+1)*fleetFanout, len(kids[l-1])), w)
		})
	}
	top := fleetLevels - 1
	var us []float64
	for e := 0; e < fleetAllocEpochs; e++ {
		t := time.Now()
		distribute(top, 0, len(kids[top]), fleetBudgetPerW*float64(n))
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us)
}

// fleetLedger runs the fleet's plain and traced samples, the layer
// probes and the paired variant runs, each in a fresh process, and
// derives the fleet's per-layer metrics.
func fleetLedger(o opts, root *tracer) (ledgerOut, error) {
	l := ledgerOut{values: map[string]float64{}}
	ref, err := loadReference()
	if err != nil {
		return l, err
	}
	// The plain and traced samples simulate the same inputs, so their
	// outputs must match each other and the reference.
	got, err := l.spawnVariants(o, root, ref, "plain", "traced")
	if err != nil {
		return l, err
	}
	for k, v := range got["traced"].Values {
		l.values[k] = v
	}
	l.values["bench.fleet_trace_overhead_frac"] = got["traced"].Values["wall_s"]/got["plain"].Values["wall_s"] - 1
	for _, kind := range []string{"probes", "pairs"} {
		vo := o
		vo.variant = kind
		out, err := l.spawnTraced(root, kind, vo)
		if err != nil {
			return l, err
		}
		for k, v := range out.Values {
			l.values[k] = v
		}
	}
	return l, nil
}
