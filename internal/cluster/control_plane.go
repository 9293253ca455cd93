// Control-plane seam for the hierarchical fleet coordinator: a layer
// above RunFleet (package intent) observes each reallocation epoch and
// answers with per-group directives (floors, caps, priority weights)
// and per-node overrides (forced p-state pins, offlining). Everything
// crosses the seam at epoch boundaries on the coordinator goroutine,
// so directives never race the stepping workers and a deterministic
// controller keeps the whole run byte-deterministic at any worker
// count.
package cluster

// GroupDirective is one interior group's control-plane override for
// the next reallocation epochs. Zero values mean "no override".
type GroupDirective struct {
	// MinW raises the group's guaranteed minimum above the sum of its
	// children's floors (plumbed into alloc.Aggregate.MinW).
	MinW float64
	// CapW bounds the group's budget ask: the water-fill never grants
	// the group more than this. Values below the group's guaranteed
	// minimum are raised to it (admission should prevent that case).
	CapW float64
	// Weight scales the group's surplus demand (ask above its
	// guaranteed minimum): >1 bids harder for contended headroom, <1
	// yields it. 0 and 1 both mean neutral.
	Weight float64
}

// NodeOverride is a per-leaf control-plane command, applied at epoch
// boundaries and sticky until replaced.
type NodeOverride uint8

const (
	// NodeAuto leaves the leaf under normal governor + water-fill
	// control.
	NodeAuto NodeOverride = iota
	// NodePinned forces the leaf's governor limit to ~0 W after every
	// reallocation, driving it to the bottom p-state regardless of its
	// granted share (the hard rung of cap enforcement).
	NodePinned
	// NodeOffline removes the leaf from service: it is no longer
	// stepped, its demand reads inactive, and its share is released to
	// the rest of the fleet.
	NodeOffline
)

// GroupObs is one first-interior-level group's epoch summary, as
// handed to the control plane.
type GroupObs struct {
	// AvgPowerW is the epoch-average measured power of the group (sum
	// of usable node samples per tick, averaged over the epoch's
	// ticks).
	AvgPowerW float64
	// BudgetW is the budget the group was granted at the previous
	// reallocation.
	BudgetW float64
	// Nodes is the group's leaf span; Active counts leaves still in
	// service (not finished, not offlined).
	Nodes, Active int
}

// FleetEpochObs is what the control plane sees at each reallocation
// epoch. Slices are valid only during the Epoch call (the coordinator
// reuses the buffers).
type FleetEpochObs struct {
	// Epoch counts completed reallocations this run; Tick is the
	// lockstep tick the epoch closed at; VirtUS is the corresponding
	// virtual time in microseconds.
	Epoch  int
	Tick   int
	VirtUS float64
	// BudgetW and FloorW echo the run's global cap and per-node floor.
	BudgetW float64
	FloorW  float64
	// Groups summarizes the first interior level in index order (nil
	// when Levels == 1).
	Groups []GroupObs
	// NodeActive[i] reports whether leaf i is still in service.
	NodeActive []bool
}

// FleetDirectives is the control plane's answer for the epoch.
type FleetDirectives struct {
	// Groups[l][g] overrides interior level l's group g (level 0 is
	// unused; nil rows mean no overrides at that level).
	Groups [][]GroupDirective
	// Nodes[i] overrides leaf i; nil leaves the previous epoch's
	// overrides in place. The coordinator copies the commands, so the
	// controller may reuse the slice.
	Nodes []NodeOverride
}

// FleetControl is the control-plane hook on FleetConfig: Epoch is
// called once per reallocation, post-barrier, on the coordinator
// goroutine, before the epoch's budgets are distributed — the returned
// directives take effect immediately. Implementations must be
// deterministic functions of the observation sequence for the run to
// stay byte-deterministic.
type FleetControl interface {
	Epoch(FleetEpochObs) FleetDirectives
}

// pinLimitW is the governor limit applied to NodePinned leaves: below
// any p-state's power, so the governor selects the bottom state.
const pinLimitW = 1e-3

// TreeShape exposes the fleet's static tree geometry to layers above
// the coordinator (intent admission walks it to map groups to leaf
// ranges). The zero value is invalid; build one with ShapeOf.
type TreeShape struct {
	s fleetShape
	n int
}

// ShapeOf resolves the same defaults RunFleet does (levels 0 → 1,
// fanout 0 → 64) and returns the resulting tree geometry.
func ShapeOf(nodes, levels, fanout int) TreeShape {
	if levels <= 0 {
		levels = 1
	}
	if fanout <= 0 {
		fanout = 64
	}
	return TreeShape{s: fleetShapeOf(nodes, levels, fanout), n: nodes}
}

// Levels is the allocation-tree depth above the leaves.
func (t TreeShape) Levels() int { return t.s.levels }

// Nodes is the leaf count.
func (t TreeShape) Nodes() int { return t.n }

// Groups is the group count at interior level l (l == 0 returns the
// leaf count).
func (t TreeShape) Groups(l int) int {
	if l < 0 || l >= t.s.levels {
		return 0
	}
	return t.s.counts[l]
}

// LeafRange is the leaf index range [lo, hi) covered by group g at
// level l (for l == 0 it is the single leaf g).
func (t TreeShape) LeafRange(l, g int) (lo, hi int) {
	span := t.s.spanSize[l]
	lo = g * span
	hi = min(lo+span, t.n)
	return lo, hi
}

// ChildRange is the level-(l-1) index range [lo, hi) under group g at
// level l.
func (t TreeShape) ChildRange(l, g int) (lo, hi int) {
	return t.s.childRange(l, g)
}

// controlEpochIn carries the coordinator's epoch state into the
// control-plane call.
type controlEpochIn struct {
	epoch, tick     int
	periodUS        float64
	budgetW, floorW float64
	shape           fleetShape
	demands         []demand
	budgets         [][]float64
	ctlW            []float64
	ctlTicks        int
	nodeOv          []NodeOverride
}

// runControlEpoch assembles the epoch observation, invokes the control
// plane, folds its node overrides into the sticky per-leaf state
// in.nodeOv in place, and returns its group directives.
// Runs on the coordinator goroutine at epoch granularity — nothing
// here touches the per-tick hot path.
func runControlEpoch(ctl FleetControl, in controlEpochIn) [][]GroupDirective {
	n := len(in.demands)
	o := FleetEpochObs{
		Epoch: in.epoch, Tick: in.tick,
		VirtUS:  float64(in.tick) * in.periodUS,
		BudgetW: in.budgetW, FloorW: in.floorW,
	}
	active := make([]bool, n)
	for i := range in.demands {
		active[i] = in.demands[i].active
	}
	o.NodeActive = active
	if in.ctlW != nil {
		gs := make([]GroupObs, in.shape.counts[1])
		span := in.shape.spanSize[1]
		for g := range gs {
			lo := g * span
			hi := min(lo+span, n)
			act := 0
			for i := lo; i < hi; i++ {
				if active[i] {
					act++
				}
			}
			var avg float64
			if in.ctlTicks > 0 {
				avg = in.ctlW[g] / float64(in.ctlTicks)
			}
			gs[g] = GroupObs{AvgPowerW: avg, BudgetW: in.budgets[1][g], Nodes: hi - lo, Active: act}
		}
		o.Groups = gs
	}
	d := ctl.Epoch(o)
	if d.Nodes != nil {
		for i := 0; i < n && i < len(d.Nodes); i++ {
			in.nodeOv[i] = d.Nodes[i]
		}
	}
	return d.Groups
}
