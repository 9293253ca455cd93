package intent

import (
	"fmt"

	"aapm/internal/cluster"
)

// Capability is the fleet's aggregate ability, the fixed side of the
// admission check: tree geometry, the root budget, the per-node floor
// and ceiling.
type Capability struct {
	// Nodes/Levels/Fanout describe the allocation tree (defaults
	// resolve as cluster.RunFleet's: Levels 0 → 1, Fanout 0 → 64).
	Nodes  int
	Levels int
	Fanout int
	// BudgetW is the root cap; FloorW the per-node minimum share
	// (0 → 4 W, as the coordinator).
	BudgetW float64
	FloorW  float64
	// MaxNodeW bounds one node's achievable power (top p-state);
	// 0 → 25 W, generous for the Pentium M platform.
	MaxNodeW float64
}

// CapabilityOf derives the capability from a fleet config, resolving
// the same defaults RunFleet does.
func CapabilityOf(cfg cluster.FleetConfig) Capability {
	return Capability{
		Nodes:   len(cfg.Nodes),
		Levels:  cfg.Levels,
		Fanout:  cfg.Fanout,
		BudgetW: cfg.BudgetW,
		FloorW:  cfg.FloorW,
	}.withDefaults()
}

func (c Capability) withDefaults() Capability {
	if c.FloorW == 0 {
		c.FloorW = 4
	}
	if c.MaxNodeW == 0 {
		c.MaxNodeW = 25
	}
	return c
}

func (c Capability) shape() cluster.TreeShape {
	return cluster.ShapeOf(c.Nodes, c.Levels, c.Fanout)
}

// admit evaluates candidate cand against the already-admitted set: a
// nil return admits it. The check is whole-set feasibility — every
// group's guaranteed minimum must fit under every cap above it, under
// the subtree's achievable power (drained leaves contribute nothing),
// and the fleet-wide minima under the root budget — so admission
// order never changes the admitted set's meaning, only which intent
// gets the blame.
func admit(c Capability, shape cluster.TreeShape, admitted []Spec, cand Spec) *Reason {
	if r := cand.validate(shape); r != nil {
		return r
	}
	all := make([]Spec, 0, len(admitted)+1)
	all = append(all, admitted...)
	all = append(all, cand)
	n := shape.Nodes()
	levels := shape.Levels()

	// Leaf pass: drained mask and the per-leaf min/achievable bases.
	drained := make([]bool, n)
	for _, s := range all {
		if s.Kind != KindDrain {
			continue
		}
		lo, hi := shape.LeafRange(s.Level, s.Group)
		for i := lo; i < hi; i++ {
			drained[i] = true
		}
	}
	live := 0
	for _, d := range drained {
		if !d {
			live++
		}
	}
	if live == 0 {
		return reasonf(ReasonDrainNoCapacity, "draining %s would leave 0 of %d nodes in service", groupName(cand), n)
	}

	// Per-group intent aggregates: the tightest cap and highest floor
	// declared on each (level, group).
	capAt := map[[2]int]float64{}
	floorAt := map[[2]int]float64{}
	for _, s := range all {
		k := [2]int{s.Level, s.Group}
		switch s.Kind {
		case KindCap:
			if cur, ok := capAt[k]; !ok || s.Watts < cur {
				capAt[k] = s.Watts
			}
		case KindFloor:
			if cur, ok := floorAt[k]; !ok || s.Watts > cur {
				floorAt[k] = s.Watts
			}
		}
	}

	// Bottom-up sweep: minW is the guaranteed minimum the water-fill
	// must honor (child sums raised by floor intents; drained leaves
	// release their floors), achW the most
	// power the subtree could draw (live leaves at the node ceiling,
	// clamped by each cap on the way up). Any group where minW
	// exceeds achW — or the root, where minW must also fit the
	// budget — is the infeasibility witness.
	minW := make([]float64, n)
	achW := make([]float64, n)
	for i := 0; i < n; i++ {
		if !drained[i] {
			minW[i] = c.FloorW
			achW[i] = c.MaxNodeW
		}
	}
	for l := 1; l < levels; l++ {
		nm := make([]float64, shape.Groups(l))
		na := make([]float64, shape.Groups(l))
		for g := range nm {
			lo, hi := shape.ChildRange(l, g)
			var m, a float64
			for k := lo; k < hi; k++ {
				m += minW[k]
				a += achW[k]
			}
			if f, ok := floorAt[[2]int{l, g}]; ok && f > m {
				m = f
			}
			if cw, ok := capAt[[2]int{l, g}]; ok && cw < a {
				a = cw
			}
			if m > a {
				where := fmt.Sprintf("group %d/%d guaranteed minimum %.1f W exceeds its %.1f W capacity", l, g, m, a)
				return infeasible(cand, where, false)
			}
			nm[g], na[g] = m, a
		}
		minW, achW = nm, na
	}
	var rootMin float64
	for _, m := range minW {
		rootMin += m
	}
	if rootMin > c.BudgetW {
		where := fmt.Sprintf("fleet guaranteed minima total %.1f W exceed the %.1f W budget", rootMin, c.BudgetW)
		return infeasible(cand, where, true)
	}
	return nil
}

// infeasible attributes a min-exceeds-capacity violation to the
// candidate's kind; root marks a budget (rather than cap/achievable)
// violation.
func infeasible(cand Spec, where string, root bool) *Reason {
	switch cand.Kind {
	case KindCap:
		return reasonf(ReasonCapBelowFloor, "%s after capping %s at %.1f W", where, groupName(cand), cand.Watts)
	case KindFloor:
		code := ReasonFloorExceedsCap
		if root {
			code = ReasonFloorsExceedBudget
		}
		return reasonf(code, "%s after flooring %s at %.1f W", where, groupName(cand), cand.Watts)
	case KindDrain:
		return reasonf(ReasonDrainStrandsFloor, "%s after draining %s", where, groupName(cand))
	default:
		return reasonf(ReasonBadSpec, "%s", where)
	}
}

func groupName(s Spec) string {
	if s.Level == 0 {
		return fmt.Sprintf("node %d", s.Group)
	}
	return fmt.Sprintf("group %d/%d", s.Level, s.Group)
}

// groupMinOf is the guaranteed minimum of level-1 group g with no
// intents applied: its leaf span × floor. The drain controller caps a
// draining group at this value.
func (c Capability) groupMinOf(shape cluster.TreeShape, g int) float64 {
	lo, hi := shape.LeafRange(1, g)
	return c.FloorW * float64(hi-lo)
}
