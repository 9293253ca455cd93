// Package alloc is the level-agnostic budget-allocation layer: the
// water-filling split plus the demand/hold/margin policy the cluster
// coordinator grew (PR 3), extracted so every level of a hierarchy —
// the root over pods, a pod over racks, a rack over nodes — runs the
// same Allocator over Aggregate summaries of the level below.
//
// The policy, unchanged from the flat coordinator:
//
//   - A child with a usable observation asks for its model appetite at
//     the recent decode rate plus MarginW of headroom, never less than
//     its recent measured draw (demonstrated consumption lower-bounds
//     demand).
//   - A child with no usable signal asks for its guaranteed minimum.
//   - A stale child — active but dark all epoch — keeps its previous
//     share untouched, off the top of the budget (hold).
//   - Inactive children release their share entirely.
//   - What remains is water-filled: the cheapest desires are satisfied
//     fully and the rest split the remainder evenly, floored at each
//     child's guaranteed minimum.
//
// Determinism contract: Allocate is a pure function of the children's
// summaries (read in index order) and mutates nothing but its own
// scratch before the apply callbacks fire in index order. When every
// fresh child's minimum equals the scalar floor — always true for leaf
// nodes — the arithmetic is operation-for-operation the flat
// coordinator's, so a one-level hierarchy reproduces its shares bit
// for bit.
package alloc

import (
	"math"
	"sort"
)

// DefaultMarginW is the headroom added to each child's model desire so
// intensity jitter does not trip a tightly fitted limit.
const DefaultMarginW = 0.5

// Aggregate is one child's epoch summary as its parent's allocator
// sees it: a leaf node reports its own demand signals; an interior
// group reports sums over its subtree.
type Aggregate interface {
	// Active reports whether the child still has work; inactive
	// children receive nothing and their previous share is released.
	Active() bool
	// Stale reports an active child that produced no usable
	// observation all epoch: its previous share is held untouched.
	Stale() bool
	// HeldW is the child's current share, consumed when Stale.
	HeldW() float64
	// DesireW is the model-projected appetite at the child's recent
	// decode rate (a leaf: PM budget desire; a group: the sum of its
	// children's effective desires). NaN when the child has no usable
	// signal, in which case the desire falls back to MinW.
	DesireW() float64
	// RecentPowerW is the epoch-average measured draw (0 when
	// unknown); it lower-bounds the effective desire.
	RecentPowerW() float64
	// RecentDPC is the epoch-average decode rate behind DesireW
	// (informational: telemetry and diagnostics; the allocator
	// consumes the already-projected DesireW).
	RecentDPC() float64
	// MinW is the child's guaranteed minimum at the given per-leaf
	// floor: the floor itself for a leaf, the sum of its subtree's
	// guarantees (held shares included) for a group.
	MinW(floorW float64) float64
}

// Allocator splits one budget over one set of children. The zero
// value is ready to use with MarginW = 0; scratch buffers grow to the
// largest child count seen and are reused across epochs, so a
// per-level Allocator allocates nothing in steady state. Not safe for
// concurrent use; one Allocator per hierarchy level.
type Allocator struct {
	// MarginW is the per-child desire headroom (DefaultMarginW in the
	// cluster coordinator).
	MarginW float64
	// OnDecision, when non-nil, receives each fresh child's
	// (pre-clamp) desire and granted limit after it is applied —
	// the debug/test hook the flat coordinator exposed.
	OnDecision func(child int, desireW, limitW float64)

	idx     []int
	desires []float64
	mins    []float64
	clamped []float64
	sorted  []float64
	lims    []float64
	bps     []breakpoint
}

// sized returns *buf resized to n, reusing capacity.
func sized(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// rawDesireW is the demand policy for one fresh child: the model
// appetite plus margin, lower-bounded by the recent measured draw,
// falling back to minW when the child has no usable signal. The
// returned desire is pre-clamp (it may sit below minW; the waterfill
// clamps), matching the flat coordinator's arithmetic exactly.
func (al *Allocator) rawDesireW(c Aggregate, minW float64) float64 {
	desire := minW
	if d := c.DesireW(); !math.IsNaN(d) {
		desire = d + al.MarginW
		if w := c.RecentPowerW(); w > desire {
			desire = w
		}
	}
	return desire
}

// EffectiveDesireW is what the child will effectively request under
// Allocate: its held share when stale, otherwise its policy desire
// clamped up to its guaranteed minimum. Interior levels sum this over
// their children to build the group-level DesireW.
func (al *Allocator) EffectiveDesireW(c Aggregate, floorW float64) float64 {
	if c.Stale() {
		return c.HeldW()
	}
	minW := c.MinW(floorW)
	if d := al.rawDesireW(c, minW); d > minW {
		return d
	}
	return minW
}

// Allocate splits budgetW over the children: held shares come off the
// top, fresh children are water-filled over the remainder, and apply
// receives each fresh child's new limit in index order. Stale and
// inactive children get no apply call — their recorded shares are the
// caller's to keep or release. Provided the guaranteed minimums fit
// the budget, the granted limits plus held shares sum to at most
// budgetW; when held shares squeeze the fresh children below their
// minimums, the minimum guarantee wins over the budget (the overshoot
// lasts at most until the held children wake or finish).
func (al *Allocator) Allocate(budgetW, floorW float64, children []Aggregate, apply func(child int, limitW float64)) {
	al.idx = al.idx[:0]
	al.desires = al.desires[:0]
	al.mins = al.mins[:0]
	var held float64
	uniform := true
	for i, c := range children {
		if !c.Active() {
			continue
		}
		if c.Stale() {
			held += c.HeldW()
			continue
		}
		minW := c.MinW(floorW)
		if minW != floorW {
			uniform = false
		}
		al.idx = append(al.idx, i)
		al.desires = append(al.desires, al.rawDesireW(c, minW))
		al.mins = append(al.mins, minW)
	}
	if len(al.idx) == 0 {
		return
	}
	avail := budgetW - held
	var lims []float64
	if uniform {
		// Every fresh child is guaranteed exactly the scalar floor —
		// the leaf case. This path is the flat coordinator's
		// arithmetic verbatim, including the pathological clamp.
		if min := floorW * float64(len(al.idx)); avail < min {
			avail = min
		}
		lims = al.waterfill(avail, floorW, al.desires)
	} else {
		var sumMin float64
		for _, m := range al.mins {
			sumMin += m
		}
		if avail < sumMin {
			avail = sumMin
		}
		lims = al.waterfillMins(avail, al.mins, al.desires)
	}
	for k, i := range al.idx {
		apply(i, lims[k])
		if al.OnDecision != nil {
			al.OnDecision(i, al.desires[k], lims[k])
		}
	}
}

// waterfill computes per-child limits from the children's desires:
// everyone receives min(desire, level) where the common water level
// spends the whole budget — the cheapest desires are satisfied fully
// and what remains splits evenly among the rest. Desires below the
// floor clamp up so no child starves. Provided floor*len(desires) <=
// budget, the returned limits sum to at most budget.
//
// This is the flat coordinator's waterfill moved verbatim (scratch
// reuse aside): the loop structure and every float operation are
// unchanged, which the one-level byte-identity differential depends
// on. The returned slice is the Allocator's scratch.
func (al *Allocator) waterfill(budget, floor float64, desires []float64) []float64 {
	n := len(desires)
	limits := sized(&al.lims, n)
	if n == 0 {
		return limits
	}
	clamped := sized(&al.clamped, n)
	for i, d := range desires {
		if d < floor {
			d = floor
		}
		clamped[i] = d
	}
	sorted := sized(&al.sorted, n)
	copy(sorted, clamped)
	sort.Float64s(sorted)

	remaining := budget
	level := 0.0
	for k, d := range sorted {
		evenShare := remaining / float64(n-k)
		if d >= evenShare {
			level = evenShare
			break
		}
		remaining -= d
		level = d // all remaining nodes satisfied
	}
	for i, d := range clamped {
		limit := d
		if limit > level {
			limit = level
		}
		if limit < floor {
			limit = floor
		}
		limits[i] = limit
	}
	return limits
}

// breakpoint is one slope-change event of the heterogeneous-floor
// water level sweep.
type breakpoint struct {
	v  float64
	dz int
}

// waterfillMins is the heterogeneous-floor generalization for
// interior levels, where each child's guaranteed minimum is the sum
// of its subtree's guarantees: child k receives
// clamp(level, mins[k], max(desires[k], mins[k])) with the common
// water level chosen so the grants spend the whole budget (or every
// child is satisfied). Solved exactly by a sorted-breakpoint sweep of
// the piecewise-linear grant sum — no iteration, fully deterministic.
// The returned slice is the Allocator's scratch.
func (al *Allocator) waterfillMins(budget float64, mins, desires []float64) []float64 {
	n := len(desires)
	limits := sized(&al.lims, n)
	if n == 0 {
		return limits
	}
	clamped := sized(&al.clamped, n)
	var sumMin float64
	if cap(al.bps) < 2*n {
		al.bps = make([]breakpoint, 2*n)
	}
	bps := al.bps[:0]
	for i, d := range desires {
		if d < mins[i] {
			d = mins[i]
		}
		clamped[i] = d
		sumMin += mins[i]
		bps = append(bps, breakpoint{mins[i], +1}, breakpoint{d, -1})
	}
	al.bps = bps
	sort.Slice(bps, func(a, b int) bool {
		if bps[a].v != bps[b].v {
			return bps[a].v < bps[b].v
		}
		return bps[a].dz < bps[b].dz
	})

	// Sweep the water level upward. Between breakpoints the grant sum
	// grows linearly with slope = number of children whose minimum is
	// below the level and whose desire is above it.
	level := math.Inf(1) // budget >= sum of desires: everyone satisfied
	sum := sumMin
	slope := 0
	prev := bps[0].v
	for _, bp := range bps {
		if dv := bp.v - prev; slope > 0 && dv > 0 {
			if next := sum + float64(slope)*dv; next >= budget {
				level = prev + (budget-sum)/float64(slope)
				break
			} else {
				sum = next
			}
		}
		prev = bp.v
		slope += bp.dz
	}
	for i, d := range clamped {
		limit := d
		if limit > level {
			limit = level
		}
		if limit < mins[i] {
			limit = mins[i]
		}
		limits[i] = limit
	}
	return limits
}
