// The coordinator: the shared-budget loop, run as the level-agnostic
// allocator (package alloc) at every tier of a tree. Leaves are index
// ranges of one machine.BatchState stepped by the worker pool; interior
// levels aggregate their children's epoch demands into group summaries
// and re-run the same Allocator; the root holds the global cap.
// Grouping is by consecutive node index with a fixed fanout, so group
// membership is a pure function of (index, fanout) and needs no
// per-node storage. With Levels == 1 (the flat cluster Run drives) the
// tree is a single Allocate over all leaves.
//
// Determinism anchor: every cross-node read happens post-barrier in
// index order on the coordinator goroutine and the top-down recursion
// visits groups in index order, so traces are byte-identical for every
// worker count (testdata/golden_cluster.csv pins the flat case).
//
// Memory: the per-node footprint is the BatchState's lanes (the PM
// state included: the fleet shares one PM policy and one machine, and
// a 4-byte coast counter) plus one run header, and the coordinator's
// per-node records (an epoch accumulator, a power entry, a demand, a
// limit and an allocation adapter; the shards add 16 bytes per 64-node
// block) — no per-node machines, governors, actuators, goroutines,
// hooks, RNGs (unless the workload jitters or the chain is noisy) or
// retained trace rows unless FleetConfig.RetainTraces asks for them.
// TestFleetMemoryBudget pins the measured bytes/node: 463 at 100,000
// nodes.
package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"aapm/internal/alloc"
	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/obs"
	"aapm/internal/phase"
	"aapm/internal/power"
	"aapm/internal/sensor"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// FleetConfig describes a shared-budget co-simulation: the flat
// cluster (Levels 1) or a tree of groups above the nodes.
type FleetConfig struct {
	// BudgetW is the global power cap held by the root; it must be
	// positive and finite.
	BudgetW float64
	// Nodes are the leaf machines (see SyntheticFleet for bulk
	// construction).
	Nodes []Node
	// Seed drives each node's noise/jitter (offset per node).
	Seed int64
	// Chain is each node's measurement chain.
	Chain sensor.Chain
	// EpochTicks is the reallocation period in monitoring intervals;
	// 0 selects 50 (500 ms at the default 10 ms period).
	EpochTicks int
	// FloorW is the per-node minimum allocation; 0 selects 4 W
	// (enough for the lowest p-state under any workload). Negative or
	// non-finite floors are rejected.
	FloorW float64
	// Static disables reallocation (and with it the control-plane
	// epochs): every node keeps BudgetW/len(Nodes) for the whole run
	// (the naive equal-split baseline).
	Static bool
	// Workers bounds the stepping goroutines: each tick the active
	// nodes are stepped concurrently across min(Workers, nodes)
	// workers. 0 selects min(GOMAXPROCS, nodes); 1 steps every node in
	// the coordinator goroutine (the serial reference). The traces are
	// identical for every value.
	Workers int
	// Levels is the allocation-tree depth above the leaves: 1 (the
	// default) is the root allocating straight over nodes — the flat
	// cluster; 2 inserts one tier of groups; and so on. Each extra
	// level re-runs the same allocator over the level below's
	// aggregates.
	Levels int
	// Fanout is the maximum children per group (consecutive node
	// indices); 0 selects 64. Must be >= 2 when Levels > 1.
	Fanout int
	// Control, when non-nil, is the control-plane hook: called at
	// every reallocation epoch with the fleet's group observations,
	// its directives (group floors/caps/weights, node pins/offlines)
	// apply to that epoch's allocation. See FleetControl.
	Control FleetControl
	// Faults, when non-nil, supplies node i's fault-injection plan
	// (nil result = no faults for that node), the machinery the
	// control plane's hard escalation is exercised against.
	Faults func(i int) *faults.Plan
	// RetainTraces keeps every node's per-interval rows (Run always
	// sets it). Off by default: at fleet scale the rows dwarf the
	// simulation state.
	RetainTraces bool
	// Telemetry, when non-nil, receives the coordinator's series:
	// cluster-wide aggregates, per-level group budgets (level 0 is the
	// per-node limit) and over-budget counters, per-level allocation
	// wall and per-worker shard wall. Per-node series come from
	// Observe, never from here, so a 10⁵-node fleet mints none. Purely
	// observational — the registry never feeds back into stepping or
	// reallocation.
	Telemetry *telemetry.Registry
	// Observe, when non-nil, returns node i's observer hooks,
	// subscribed before the run (an empty return leaves the node
	// unobserved) — e.g. a telemetry.Observer or a TraceEventWriter
	// run hook per node. Hooks turn on the tick engine's full event
	// order; traces stay byte-identical.
	Observe func(i int) []machine.Hook
}

// FleetResult is the co-simulation outcome.
type FleetResult struct {
	Nodes  int
	Levels int
	Fanout int
	// GroupsPerLevel[l] is the group count at interior level l+1
	// (empty when Levels == 1).
	GroupsPerLevel []int
	// Runs holds each node's trace in FleetConfig.Nodes order; with
	// RetainTraces off each Run carries aggregates (duration, energy,
	// transitions) but no rows. Names mirrors Runs.
	Runs  []*trace.Run
	Names []string

	// MachineSeconds is the sum of node completion times (lower is
	// better for equal work).
	MachineSeconds float64
	// Makespan is the time until the last node finished.
	Makespan time.Duration
	// PeakTotalW is the highest lockstep-interval sum of measured
	// node powers across the whole run.
	PeakTotalW float64
	// OverFrac is the fraction of all lockstep intervals — including
	// the tail where some nodes have already finished — whose total
	// measured power exceeded the budget. It is the physical
	// shared-supply view: the supply is violated whenever the sum of
	// whatever is still drawing exceeds the cap, so tail intervals
	// legitimately count (and, with fewer nodes drawing, almost never
	// violate, which dilutes the ratio on runs with long tails).
	OverFrac float64
	// ContendedOverFrac is the same ratio restricted to contended
	// intervals — those where every node was still active. It is the
	// coordinator-quality view: the only intervals where reallocation
	// has to arbitrate the full population, undiluted by the tail.
	// ContendedIntervals counts them.
	ContendedOverFrac  float64
	ContendedIntervals int
	// Intervals counts lockstep intervals; Epochs counts completed
	// reallocations; NodeTicks counts node-steps (the throughput
	// numerator for node-ticks/sec).
	Intervals int
	Epochs    int
	NodeTicks int64

	// Workers is the stepping-goroutine count the run used.
	// WorkerWall[k] is worker k's shard-stepping wall-clock; CoordWall
	// times the coordinator's post-barrier work per tick (aggregation
	// and reallocation). All purely observational wall-clock.
	Workers    int
	WorkerWall []WallClock
	CoordWall  WallClock

	// blockSkips counts the block-ticks the shards passed over.
	blockSkips int64
}

// fleetShape is the static tree geometry: counts[0] is the node
// count, counts[l] the group count at level l (ceil division by
// fanout, consecutive indices), up to counts[levels-1] directly under
// the root.
type fleetShape struct {
	levels, fanout int
	counts         []int
	// spanSize[l] is the node-index span one level-l group covers
	// (fanout^l clamped to n).
	spanSize []int
}

func fleetShapeOf(n, levels, fanout int) fleetShape {
	s := fleetShape{levels: levels, fanout: fanout}
	s.counts = make([]int, levels)
	s.spanSize = make([]int, levels)
	s.counts[0] = n
	s.spanSize[0] = 1
	for l := 1; l < levels; l++ {
		s.counts[l] = (s.counts[l-1] + fanout - 1) / fanout
		s.spanSize[l] = min(s.spanSize[l-1]*fanout, n)
	}
	return s
}

// childRange returns the index range [lo, hi) of level-(l-1) entities
// under level-l group g.
func (s fleetShape) childRange(l, g int) (lo, hi int) {
	lo = g * s.fanout
	hi = min(lo+s.fanout, s.counts[l-1])
	return lo, hi
}

// groupAgg is an interior group's epoch summary: sums over its
// children assembled bottom-up each epoch. A group is never stale —
// staleness is a leaf property; a stale leaf's held share is folded
// into both the group's ask and its guaranteed minimum, so every
// ancestor keeps paying the hold.
type groupAgg struct {
	active bool
	askW   float64
	minW   float64
}

func (g *groupAgg) Active() bool                { return g.active }
func (g *groupAgg) Stale() bool                 { return false }
func (g *groupAgg) HeldW() float64              { return 0 }
func (g *groupAgg) DesireW() float64            { return g.askW }
func (g *groupAgg) RecentPowerW() float64       { return 0 }
func (g *groupAgg) RecentDPC() float64          { return 0 }
func (g *groupAgg) MinW(floorW float64) float64 { return g.minW }

// RunFleet executes the co-simulation to completion.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	return RunFleetContext(context.Background(), cfg)
}

// RunFleetContext executes the co-simulation under ctx, observing
// cancellation between lockstep ticks. It is the package's one
// coordinator loop; Run is this with RetainTraces set.
func RunFleetContext(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(cfg.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("fleet: no nodes")
	}
	if !(cfg.BudgetW > 0) || math.IsInf(cfg.BudgetW, 1) {
		return nil, fmt.Errorf("fleet: budget %g W must be positive and finite", cfg.BudgetW)
	}
	if !(cfg.FloorW >= 0) || math.IsInf(cfg.FloorW, 1) {
		return nil, fmt.Errorf("fleet: floor %g W must be non-negative and finite", cfg.FloorW)
	}
	floor := cfg.FloorW
	if floor == 0 {
		floor = 4
	}
	if floor*float64(n) > cfg.BudgetW {
		return nil, fmt.Errorf("fleet: budget %.1f W cannot cover %d nodes at the %.1f W floor", cfg.BudgetW, n, floor)
	}
	epoch := cfg.EpochTicks
	if epoch <= 0 {
		epoch = 50
	}
	levels := cfg.Levels
	if levels == 0 {
		levels = 1
	}
	if levels < 1 || levels > 16 {
		return nil, fmt.Errorf("fleet: levels %d out of range [1, 16]", cfg.Levels)
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = 64
	}
	if levels > 1 && fanout < 2 {
		return nil, fmt.Errorf("fleet: fanout %d must be >= 2 with %d levels", cfg.Fanout, levels)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	shape := fleetShapeOf(n, levels, fanout)

	// One machine for the whole fleet: node i's own seed,
	// cfg.Seed + i*7919, is the shared seed plus its SeedOffset, so
	// traces match a standalone machine per node bit for bit, while the
	// engine interns one platform entry instead of one per node. A node
	// with a fault plan gets a machine of its own that carries it.
	shared, err := machine.New(machine.Config{Truth: power.PentiumM755Truth(), Chain: cfg.Chain, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	share := cfg.BudgetW / float64(n)
	// One PM policy for the whole fleet: each node's PM state is a
	// lane of the batch (SetLimit/BudgetDesireW go through the batch),
	// so no node owns a governor or actuator object.
	pol, err := control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.25})
	if err != nil {
		return nil, err
	}
	lane := pol.Lane(share)
	names := make([]string, n)
	// The engine reads each node as it builds its lanes, so no
	// per-node BatchNode outlives its iteration. The coordinator reads
	// node observations through the engine's per-node accessors rather
	// than a hook tap, so a run without Observe stays off the full
	// event order.
	var machineErr error
	bs, err := machine.NewBatchFunc(n, func(i int) (machine.BatchNode, error) {
		node := &cfg.Nodes[i]
		name := node.Name
		if name == "" {
			name = node.Workload.Name
		}
		names[i] = name
		m := shared
		if cfg.Faults != nil {
			if plan := cfg.Faults(i); plan != nil {
				if m, machineErr = machine.New(machine.Config{Truth: shared.Truth(), Chain: cfg.Chain, Seed: cfg.Seed, Faults: plan}); machineErr != nil {
					return machine.BatchNode{}, machineErr
				}
			}
		}
		return machine.BatchNode{Machine: m, Workload: node.Workload, Policy: pol, Lane: lane, SeedOffset: int64(i) * 7919}, nil
	}, machine.BatchOptions{RetainTraces: cfg.RetainTraces, Hooks: cfg.Observe})
	switch {
	case machineErr != nil:
		return nil, machineErr // a faulted node's machine, as machine.New reported it
	case err != nil:
		return nil, fmt.Errorf("fleet: %w", err)
	}

	// Control-plane state: node overrides are written post-barrier on
	// the coordinator goroutine and read by the workers only after the
	// next generation advance, so the pool's happens-before edges cover
	// them. With Control nil none of this exists and the workers step
	// the engine ungated.
	ctl := cfg.Control
	var nodeOv []NodeOverride
	var ctlW []float64
	ctlTicks := 0
	if ctl != nil {
		nodeOv = make([]NodeOverride, n)
		if levels > 1 {
			ctlW = make([]float64, shape.counts[1])
		}
	}
	// groupW[g] is level-1 group g's power sum this tick, for the
	// telemetry and the control plane: the group's entries summed in
	// index order, kept from tick to tick and re-summed only when a
	// shard changed one of them.
	var groupW []float64
	if levels > 1 && (cfg.Telemetry != nil || ctl != nil) {
		groupW = make([]float64, shape.counts[1])
	}

	st := newStepper(bs, nodeOv, workers)
	var ft *fleetTelemetry
	if cfg.Telemetry != nil {
		ft = newFleetTelemetry(cfg.Telemetry, cfg.BudgetW, workers, shape, groupW)
		st.shardWall = ft.shardWall
	}
	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(ctx, fmt.Sprintf("fleet-l%d", levels), workers, st.shard)
		defer pool.close()
	}
	// Tracing is epoch-granular: an unsampled (or absent) trace makes
	// spans nil and the per-tick loop does no span work at all — the
	// nil-safe guard is the only cost, and the tracing-off budget test
	// pins it.
	spans := newCoordSpans(obs.FromContext(ctx), shared.SamplePeriod(), st, workers, shape.counts)

	res := &FleetResult{
		Nodes: n, Levels: levels, Fanout: fanout,
		Names: names, Workers: workers,
	}
	for l := 1; l < levels; l++ {
		res.GroupsPerLevel = append(res.GroupsPerLevel, shape.counts[l])
	}

	limits := make([]float64, n) // each node's current share
	for i := range limits {
		limits[i] = share
	}
	demands := make([]demand, n)

	// Persistent allocation state: the leaf allocation over the demand
	// records, one groupAgg row and one Allocator per interior level
	// (scratch is reused across epochs, and the top-down recursion runs
	// level l's Allocate to completion inside level l+1's apply
	// callback, so per-level instances never re-enter). budgets[l][g]
	// is the grant of level-l entity g; level 0 is the per-node limit.
	leaf := newLeafAlloc(bs, demands, limits)
	groupAggs := make([][]groupAgg, levels)
	groupKids := make([][]alloc.Aggregate, levels)
	budgets := make([][]float64, levels)
	budgets[0] = limits
	for l := 1; l < levels; l++ {
		groupAggs[l] = make([]groupAgg, shape.counts[l])
		groupKids[l] = make([]alloc.Aggregate, shape.counts[l])
		budgets[l] = make([]float64, shape.counts[l])
		for g := range groupAggs[l] {
			groupKids[l][g] = &groupAggs[l][g]
			// Until the first epoch, over-budget accounting uses the
			// node-proportional split of the cap.
			lo := g * shape.spanSize[l]
			hi := min(lo+shape.spanSize[l], n)
			budgets[l][g] = cfg.BudgetW * float64(hi-lo) / float64(n)
		}
	}
	allocators := make([]alloc.Allocator, levels)
	for l := 1; l < levels; l++ {
		allocators[l].MarginW = budgetMarginW
	}
	// distribute splits budget over level-l entities [lo, hi): leaves
	// get their PM limits set; a group recurses with its grant. Groups
	// are visited in index order at every level, so the leaf apply
	// order — and with it every trace byte — is worker-count
	// independent.
	var distribute func(l, lo, hi int, budget float64)
	distribute = func(l, lo, hi int, budget float64) {
		var t0 time.Time
		if ft != nil || spans.active() {
			t0 = time.Now()
		}
		if l == 0 {
			leaf.allocate(budget, floor, lo, hi)
		} else {
			allocators[l].Allocate(budget, floor, groupKids[l][lo:hi], func(k int, w float64) {
				g := lo + k
				budgets[l][g] = w
				clo, chi := shape.childRange(l, g)
				distribute(l-1, clo, chi, w)
			})
		}
		if ft != nil || spans.active() {
			// Inclusive wall: a level's sample covers its own Allocate
			// plus the recursion below it (the root sample is the whole
			// epoch's allocation cost).
			d := time.Since(t0)
			if ft != nil {
				ft.wallAcc[l] += d
			}
			spans.levelDur(l, d)
		}
	}
	// aggregate rebuilds the interior summaries bottom-up from the
	// fresh demand records. Stale leaves fold their held share into
	// both ask and min; interior children are never stale. The
	// control plane's epoch directives fold in after the child sums —
	// without them the loop is the plain sum, byte-identical to a
	// control-free run.
	var dirGroups [][]GroupDirective
	aggregate := func() {
		for l := 1; l < levels; l++ {
			kids := leaf.kids
			if l > 1 {
				kids = groupKids[l-1]
			}
			var dirs []GroupDirective
			if l < len(dirGroups) {
				dirs = dirGroups[l]
			}
			for g := range groupAggs[l] {
				lo, hi := shape.childRange(l, g)
				ga := &groupAggs[l][g]
				*ga = groupAgg{}
				for _, c := range kids[lo:hi] {
					if !c.Active() {
						continue
					}
					ga.active = true
					if c.Stale() {
						h := c.HeldW()
						ga.askW += h
						ga.minW += h
						continue
					}
					ga.minW += c.MinW(floor)
					ga.askW += leaf.al.EffectiveDesireW(c, floor)
				}
				if dirs != nil {
					d := dirs[g]
					if ga.minW < d.MinW {
						ga.minW = d.MinW
					}
					if d.Weight > 0 && d.Weight != 1 {
						ga.askW = ga.minW + d.Weight*(ga.askW-ga.minW)
					}
					if d.CapW > 0 {
						c := d.CapW
						if c < ga.minW {
							c = ga.minW
						}
						if ga.askW > c {
							ga.askW = c
						}
					}
				}
			}
		}
	}

	var intervals, overIntervals, contended, overContended int
	// totalW is the power sum over every entry, kept from tick to tick.
	var totalW float64
	for tick := 0; ; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: abandoned after %d ticks: %w", tick, err)
		}
		epochTick := !cfg.Static && tick > 0 && tick%epoch == 0
		st.epochFold = epochTick
		if pool != nil {
			pool.tick()
		} else {
			st.shard(0)
		}
		st.wakeAll = false
		t0 := time.Now()
		// Post-barrier: the shards have folded their own nodes; what
		// remains are the cross-node reads, made in node-index order on
		// the coordinator goroutine so the aggregate state is identical
		// for every worker count. The first error by node index wins,
		// deterministically.
		stepped, failed, changed := 0, false, false
		for k := range st.tally {
			stepped += st.tally[k].stepped
			failed = failed || st.tally[k].failed
			changed = changed || st.tally[k].changed
		}
		if failed {
			for i := 0; i < n; i++ {
				if err := bs.NodeErr(i); err != nil {
					return nil, fmt.Errorf("fleet: node %s: %w", names[i], err)
				}
			}
		}
		anyActive := stepped > 0
		allActive := stepped == n
		res.NodeTicks += int64(stepped)
		// The power sums stay serial and in index order: per-shard
		// partial sums would reassociate the float additions and make
		// PeakTotalW/OverFrac depend on the worker count. A sum whose
		// entries no shard changed has the bits it had: it would add
		// the same terms again.
		if changed {
			totalW = 0
			for _, w := range st.power {
				totalW += w
			}
			if groupW != nil {
				st.sumGroups(groupW, fanout)
			}
		}
		for g := range ctlW {
			ctlW[g] += groupW[g]
		}
		if !anyActive {
			res.CoordWall.Add(time.Since(t0))
			spans.finish(tick)
			break
		}
		intervals++
		if totalW > res.PeakTotalW {
			res.PeakTotalW = totalW
		}
		over := totalW > cfg.BudgetW
		if over {
			overIntervals++
		}
		if allActive {
			contended++
			if over {
				overContended++
			}
		}
		if ft != nil {
			ft.tick(totalW, over, allActive, budgets)
		}
		if ctl != nil {
			ctlTicks++
		}

		if epochTick {
			for i := range demands {
				done := bs.NodeDone(i) || nodeOv != nil && nodeOv[i] == NodeOffline
				assembleDemand(&demands[i], done, &st.acc[i], bs, i)
			}
			if ctl != nil {
				dirGroups = runControlEpoch(ctl, controlEpochIn{
					epoch: res.Epochs, tick: tick,
					periodUS: float64(shared.SamplePeriod()) / float64(time.Microsecond),
					budgetW:  cfg.BudgetW, floorW: floor,
					shape: shape, demands: demands, budgets: budgets,
					ctlW: ctlW, ctlTicks: ctlTicks, nodeOv: nodeOv,
				})
				ctlTicks = 0
				if ctlW != nil {
					clear(ctlW)
				}
				// Offlining takes effect in this epoch's allocation too:
				// the released share must not sit on a dead node.
				for i := range demands {
					if nodeOv[i] == NodeOffline && demands[i].active {
						demands[i] = demand{}
					}
				}
			}
			if levels == 1 {
				distribute(0, 0, n, cfg.BudgetW)
			} else {
				aggregate()
				distribute(levels-1, 0, shape.counts[levels-1], cfg.BudgetW)
			}
			if nodeOv != nil {
				for i, ov := range nodeOv {
					if ov == NodePinned {
						limits[i] = pinLimitW
						bs.SetLimit(i, pinLimitW)
					}
				}
			}
			res.Epochs++
			st.wakeAll = true
			spans.fleetEpoch(tick, cfg.BudgetW, st.acc)
			for i := range st.acc {
				st.acc[i].reset()
			}
			if ft != nil {
				ft.epoch(budgets)
			}
		}
		res.CoordWall.Add(time.Since(t0))
	}

	res.WorkerWall = make([]WallClock, workers)
	for k := range st.tally {
		res.WorkerWall[k] = st.tally[k].wall
		res.blockSkips += st.tally[k].skips
	}
	res.Intervals = intervals
	res.Runs = make([]*trace.Run, n)
	for i := 0; i < n; i++ {
		run := bs.Result(i)
		res.Runs[i] = run
		res.MachineSeconds += run.Duration.Seconds()
		if run.Duration > res.Makespan {
			res.Makespan = run.Duration
		}
	}
	if intervals > 0 {
		res.OverFrac = float64(overIntervals) / float64(intervals)
	}
	res.ContendedIntervals = contended
	if contended > 0 {
		res.ContendedOverFrac = float64(overContended) / float64(contended)
	}
	return res, nil
}

// SyntheticFleet builds n leaf nodes for fleet-scale runs: three
// fixed single-phase profiles (CPU-bound, mixed, memory-ish) assigned
// round-robin, each sized to retire in roughly ticks monitoring
// intervals at the top p-state (2 GHz x 10 ms = 2e7 cycles per tick).
// The three Workload values are shared across nodes, so the engine's
// spec table holds three entries regardless of n, and with zero
// jitter no node carries an RNG.
func SyntheticFleet(n, ticks int) []Node {
	const cyclesPerTick = 20e6
	profiles := []phase.Workload{
		{Name: "fleet-cpu", Phases: []phase.Params{
			{Name: "cpu", Instructions: float64(ticks) * cyclesPerTick / 1.0, CPICore: 1.0, MLP: 1, SpecFactor: 1.05},
		}},
		{Name: "fleet-mid", Phases: []phase.Params{
			{Name: "mid", Instructions: float64(ticks) * cyclesPerTick / 2.0, CPICore: 2.0, MLP: 1, SpecFactor: 1.05},
		}},
		{Name: "fleet-mem", Phases: []phase.Params{
			{Name: "mem", Instructions: float64(ticks) * cyclesPerTick / 3.0, CPICore: 3.0, MLP: 1, SpecFactor: 1.05},
		}},
	}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Workload: profiles[i%len(profiles)]}
	}
	return nodes
}

// maxGroupSeries caps per-group telemetry: a level with more groups
// (or, at level 0, nodes) than this gets no per-group budget gauges
// and, above the leaves, one aggregated over-budget series
// (group="all"), so a 100k-node fleet does not mint tens of thousands
// of series.
const maxGroupSeries = 64

// fleetEpochWallBuckets bound the per-level allocation wall: leaf
// Allocates are microseconds, a 100k-leaf epoch tops out in the
// milliseconds.
var fleetEpochWallBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// fleetTelemetry owns the hierarchy-level series, all written on the
// coordinator goroutine (the shard histograms aside, which the
// registry serializes).
type fleetTelemetry struct {
	shape fleetShape

	totalW    *telemetry.Series
	intervals *telemetry.Series
	contended *telemetry.Series
	epochs    *telemetry.Series
	overRoot  *telemetry.Series
	// overBy[l][g] / budgetBy[l][g] are per-group series for level l
	// (nil rows when the level exceeds maxGroupSeries, in which case
	// overAll[l] aggregates the group-interval violations). Level 0
	// has budget gauges only: its groups are single nodes and their
	// budgets the PM limits.
	overBy    [][]*telemetry.Series
	overAll   []*telemetry.Series
	budgetBy  [][]*telemetry.Series
	epochWall []*telemetry.Series
	shardWall []*telemetry.Series

	// groupW[l][g] is the current tick's measured power of group g at
	// level l: level 1 is the coordinator's sums, each level above
	// rolled up from the one below. wallAcc[l] is the current epoch's
	// allocation wall.
	groupW  [][]float64
	wallAcc []time.Duration
}

func newFleetTelemetry(reg *telemetry.Registry, budget float64, workers int, shape fleetShape, groupW []float64) *fleetTelemetry {
	ft := &fleetTelemetry{shape: shape}
	reg.Gauge("aapm_fleet_nodes", "Leaf nodes in the hierarchical co-simulation.").With().Set(float64(shape.counts[0]))
	reg.Gauge("aapm_fleet_levels", "Allocation-tree depth above the leaves.").With().Set(float64(shape.levels))
	reg.Gauge("aapm_fleet_fanout", "Maximum children per group.").With().Set(float64(shape.fanout))
	reg.Gauge("aapm_fleet_budget_watts", "Global power cap held by the root.").With().Set(budget)
	ft.totalW = reg.Gauge("aapm_fleet_total_power_watts", "Sum of measured node powers over the last lockstep interval.").With()
	ft.intervals = reg.Counter("aapm_fleet_intervals_total", "Lockstep intervals stepped.").With()
	ft.contended = reg.Counter("aapm_fleet_contended_intervals_total", "Lockstep intervals where every node was still active.").With()
	ft.epochs = reg.Counter("aapm_fleet_reallocation_epochs_total", "Budget reallocation epochs completed.").With()
	over := reg.Counter("aapm_fleet_over_budget_intervals_total", "Intervals where measured power exceeded the budget at the labeled level/group (level \"root\" is the global cap; group \"all\" aggregates levels too wide for per-group series).", "level", "group")
	ft.overRoot = over.With("root", "")
	groupBudget := reg.Gauge("aapm_fleet_group_budget_watts", "Budget granted to the labeled group at the last reallocation (level \"0\" groups are single nodes: the value is the node's PM limit).", "level", "group")
	ft.overBy = make([][]*telemetry.Series, shape.levels)
	ft.budgetBy = make([][]*telemetry.Series, shape.levels)
	ft.overAll = make([]*telemetry.Series, shape.levels)
	ft.groupW = make([][]float64, shape.levels)
	if shape.counts[0] <= maxGroupSeries {
		for i := 0; i < shape.counts[0]; i++ {
			ft.budgetBy[0] = append(ft.budgetBy[0], groupBudget.With("0", fmt.Sprint(i)))
		}
	}
	for l := 1; l < shape.levels; l++ {
		ft.groupW[l] = groupW
		if l > 1 {
			ft.groupW[l] = make([]float64, shape.counts[l])
		}
		if shape.counts[l] > maxGroupSeries {
			ft.overAll[l] = over.With(fmt.Sprint(l), "all")
			continue
		}
		for g := 0; g < shape.counts[l]; g++ {
			ft.overBy[l] = append(ft.overBy[l], over.With(fmt.Sprint(l), fmt.Sprint(g)))
			ft.budgetBy[l] = append(ft.budgetBy[l], groupBudget.With(fmt.Sprint(l), fmt.Sprint(g)))
		}
	}
	wall := reg.Histogram("aapm_fleet_epoch_wall_seconds", "Per-epoch allocation wall-clock at the labeled level, inclusive of the recursion below it (the top level is the whole epoch's allocation cost).", fleetEpochWallBuckets, "level")
	ft.wallAcc = make([]time.Duration, shape.levels)
	for l := 0; l < shape.levels; l++ {
		ft.epochWall = append(ft.epochWall, wall.With(fmt.Sprint(l)))
	}
	shard := reg.Histogram("aapm_fleet_shard_wall_seconds", "Per-worker wall-clock to step one shard for one tick.", shardWallBuckets, "worker")
	for k := 0; k < workers; k++ {
		ft.shardWall = append(ft.shardWall, shard.With(fmt.Sprint(k)))
	}
	return ft
}

// tick publishes one lockstep interval's aggregates and judges the
// per-group power sums against the current group budgets.
func (ft *fleetTelemetry) tick(totalW float64, over, allActive bool, budgets [][]float64) {
	ft.totalW.Set(totalW)
	ft.intervals.Inc()
	if over {
		ft.overRoot.Inc()
	}
	if allActive {
		ft.contended.Inc()
	}
	for l := 1; l < ft.shape.levels; l++ {
		if l > 1 {
			// Roll the lower level's sums up one tier before judging.
			for g := range ft.groupW[l] {
				lo, hi := ft.shape.childRange(l, g)
				var sum float64
				for c := lo; c < hi; c++ {
					sum += ft.groupW[l-1][c]
				}
				ft.groupW[l][g] = sum
			}
		}
		for g, w := range ft.groupW[l] {
			if w <= budgets[l][g] {
				continue
			}
			if ft.overBy[l] != nil {
				ft.overBy[l][g].Inc()
			} else {
				ft.overAll[l].Inc()
			}
		}
	}
}

// epoch publishes one reallocation's outcome: the granted group
// budgets (budgets[0] being the per-node limits) and the per-level
// allocation wall.
func (ft *fleetTelemetry) epoch(budgets [][]float64) {
	ft.epochs.Inc()
	for l := range ft.budgetBy {
		for g, s := range ft.budgetBy[l] {
			s.Set(budgets[l][g])
		}
	}
	for l, d := range ft.wallAcc {
		ft.epochWall[l].Observe(d.Seconds())
		ft.wallAcc[l] = 0
	}
}
