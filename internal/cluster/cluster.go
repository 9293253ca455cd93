// Package cluster co-simulates several machines sharing one power
// budget — the paper's first motivating deployment for PM ("(i)
// controlling multiple components with shared power supply/cooling
// resources", §IV-A; compare Felter et al., cited in §II, on shared
// budgets).
//
// One coordinator (RunFleetContext) steps every node in lockstep and
// periodically redistributes the global budget as per-node PM limits:
// each epoch a node's share follows its measured appetite, floored so
// no node starves, so slack left by memory-bound phases flows to
// power-hungry neighbours within the same global cap. The flat
// shared-budget cluster (Run) is the one-level case — the root
// allocating straight over the nodes — with every trace row retained;
// deeper trees insert tiers of groups between the root and the nodes.
//
// Stepping is parallel: each tick the active nodes are stepped
// concurrently across a persistent worker pool (Workers), each worker
// owning one contiguous, cache-line-aligned node range and folding its
// own nodes' observations, with a barrier before the coordinator reads
// any of them. Traces are identical for every worker count — each node
// owns its seeded RNG, workers never share mutable state, and all
// cross-node reads happen post-barrier in node-index order (see
// DESIGN.md, "Parallel cluster coordinator").
package cluster

import (
	"context"
	"math"

	"aapm/internal/alloc"
	"aapm/internal/machine"
	"aapm/internal/phase"
)

// Node is one machine's assignment.
type Node struct {
	// Name labels the node; defaults to the workload name.
	Name     string
	Workload phase.Workload
}

// Config describes a flat shared-budget co-simulation: a FleetConfig
// whose Levels default to 1.
type Config = FleetConfig

// Result is the co-simulation outcome.
type Result = FleetResult

// Run executes the co-simulation to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the co-simulation under ctx through the one
// coordinator, retaining every node's per-interval trace rows:
// cancellation (or a deadline) is observed between lockstep ticks,
// abandoning the run with ctx's error. A nil ctx behaves like
// context.Background.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg.RetainTraces = true
	return RunFleetContext(ctx, cfg)
}

// usable reports whether a tap observation is fit for accumulation
// (faulted sensors and counters can hand the coordinator NaN/Inf).
func usable(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// demand is one node's reallocation input, assembled post-barrier by
// the coordinator from the node's epoch accumulator (folded by its
// shard each tick) and, as a fallback, the engine's last decode rate.
type demand struct {
	// active is false once the node finished (its share is released).
	active bool
	// hold keeps the node's previous share: it is active but produced
	// no fresh observation all epoch, so its tap is stale.
	hold bool
	// useDPC marks dpc as valid; dpc is the epoch-average (or, as a
	// fallback, last-tap) decode rate the desire is evaluated at.
	useDPC bool
	dpc    float64
	// avgW is the epoch-average measured power (0 when unknown): a
	// lower bound on the node's demand, since it was drawn at the
	// current — possibly capped — p-state.
	avgW float64
}

// assembleDemand builds node i's reallocation input from its epoch
// accumulator a. The engine's LastDPC is read only in the fallback
// case that needs it, so an epoch does not walk every node's sample
// record.
func assembleDemand(d *demand, done bool, a *nodeAcc, bs *machine.BatchState, i int) {
	*d = demand{active: !done}
	if !d.active {
		return
	}
	switch {
	case a.recentN > 0:
		// The epoch average, not the last tick: a one-tick
		// spike must not swing a whole epoch's shares.
		d.useDPC = true
		d.dpc = a.recentDPC / float64(a.recentN)
		d.avgW = a.recentW / float64(a.recentN)
	case !a.fresh && a.lastSeq > 0:
		// The tap was last written in an earlier epoch: the
		// node has effectively gone dark (e.g. degraded
		// offline mid-epoch). Hold its previous share rather
		// than reallocating on stale data.
		d.hold = true
	case a.lastSeq > 0:
		// Fresh tap but no full-epoch average (e.g. power
		// readings dropped all epoch): fall back to the tap.
		if dpc := bs.LastDPC(i); usable(dpc) {
			d.useDPC = true
			d.dpc = dpc
		}
	}
}

// budgetMarginW is the small headroom added to each node's desire so
// intensity jitter does not trip a tightly fitted limit.
const budgetMarginW = alloc.DefaultMarginW

// nodeAgg adapts one node's demand record to the alloc.Aggregate
// summary the level-agnostic allocator consumes. Its HeldW reads the
// live limits slice, so holds accumulated during an Allocate see the
// share as of the epoch boundary (apply callbacks fire only after all
// summaries are read).
type nodeAgg struct {
	la *leafAlloc
	i  int
}

func (a *nodeAgg) Active() bool   { return a.la.demands[a.i].active }
func (a *nodeAgg) Stale() bool    { return a.la.demands[a.i].hold }
func (a *nodeAgg) HeldW() float64 { return a.la.limits[a.i] }
func (a *nodeAgg) DesireW() float64 {
	d := &a.la.demands[a.i]
	if !d.useDPC {
		return math.NaN()
	}
	return a.la.bs.BudgetDesireW(a.i, d.dpc)
}
func (a *nodeAgg) RecentPowerW() float64       { return a.la.demands[a.i].avgW }
func (a *nodeAgg) RecentDPC() float64          { return a.la.demands[a.i].dpc }
func (a *nodeAgg) MinW(floorW float64) float64 { return floorW }

// leafAlloc is the coordinator's level-0 allocation: one
// alloc.Aggregate adapter per node over its demand record, with each
// grant applied to the node's recorded share and its PM limit (the
// node's lane in the batch). Each node with a usable epoch average
// asks for the power its PM would need to run the top p-state at that
// average decode rate (at least its average measured draw), held nodes
// keep their previous share off the top of the budget, and finished
// nodes release theirs. The policy and water-fill live in package
// alloc.
type leafAlloc struct {
	al      alloc.Allocator
	kids    []alloc.Aggregate
	bs      *machine.BatchState
	demands []demand
	limits  []float64
}

func newLeafAlloc(bs *machine.BatchState, demands []demand, limits []float64) *leafAlloc {
	aggs := make([]nodeAgg, len(demands))
	la := &leafAlloc{
		al:      alloc.Allocator{MarginW: budgetMarginW, OnDecision: debugHook},
		kids:    make([]alloc.Aggregate, len(demands)),
		bs:      bs,
		demands: demands,
		limits:  limits,
	}
	for i := range aggs {
		aggs[i] = nodeAgg{la: la, i: i}
		la.kids[i] = &aggs[i]
	}
	return la
}

// allocate splits budget over nodes [lo, hi), updating their limits in
// place.
func (la *leafAlloc) allocate(budget, floor float64, lo, hi int) {
	la.al.Allocate(budget, floor, la.kids[lo:hi], func(k int, w float64) {
		i := lo + k
		la.limits[i] = w
		la.bs.SetLimit(i, w)
	})
}

// debugHook, when set by tests, receives each reallocation decision.
var debugHook func(node int, desire, limit float64)

// shardWallBuckets are the per-worker shard-step histogram bounds in
// seconds: a shard-tick takes microseconds on a small cluster and
// milliseconds on a 10⁵-node fleet (on a 2-CPU host the fleet's
// shard-ticks average 1.7 ms serially and 0.8 ms on each of two
// workers), with a long tail under contention and on ticks where many
// nodes replay their coasts at once.
var shardWallBuckets = []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2}
