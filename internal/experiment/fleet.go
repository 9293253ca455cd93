package experiment

import (
	"fmt"
	"io"
	"time"

	"aapm/internal/cluster"
	"aapm/internal/sensor"
)

// FleetScaleResult is the hierarchical-coordinator scaling study: one
// fleet-sized synthetic run through the allocation tree, preceded by
// a determinism cross-check of the one-level hierarchy against the
// flat coordinator on real suite workloads.
type FleetScaleResult struct {
	Nodes          int
	Levels         int
	Fanout         int
	GroupsPerLevel []int
	BudgetW        float64
	Workers        int

	Epochs          int
	Intervals       int
	NodeTicks       int64
	WallSec         float64
	NodeTicksPerSec float64
	MakespanSec     float64
	PeakTotalW      float64
	OverFrac        float64

	// FlatIdentical is true when a one-level fleet at the default
	// worker count, rows discarded, reproduced the flat cluster's
	// aggregates (serial, rows retained) exactly on an 8-node suite
	// population.
	FlatIdentical bool
}

// FleetScale cross-checks the hierarchy against the flat coordinator,
// then times a fleet-sized synthetic run (Options.FleetNodes /
// FleetLevels / FleetFanout; defaults 100k nodes, 3 levels, fanout
// 64) and reports node-ticks/sec. The big run uses the ideal
// measurement chain and jitter-free workloads so no node carries an
// RNG — the memory-lean configuration the fleet coordinator is
// specified against.
func (c *Context) FleetScale() (*FleetScaleResult, error) {
	n := c.opts.FleetNodes
	if n == 0 {
		n = 100_000
		// Honor the context's fidelity/speed trade like workload
		// iteration counts do, so scaled-down eval runs stay quick.
		if c.opts.ScaleDown > 1 {
			n = max(1_000, n/c.opts.ScaleDown)
		}
	}
	levels := c.opts.FleetLevels
	if levels == 0 {
		levels = 3
	}
	fanout := c.opts.FleetFanout

	// Determinism cross-check on real workloads with the noisy chain:
	// the flat cluster is the same coordinator, so this pins that
	// neither the worker count nor trace retention moves the schedule.
	names := []string{"swim", "mcf", "lucas", "crafty", "gzip", "gcc", "art", "ammp"}
	var ns []cluster.Node
	for _, name := range names {
		w, err := c.Workload(name)
		if err != nil {
			return nil, err
		}
		w.Iterations = max(1, w.Iterations/8)
		ns = append(ns, cluster.Node{Workload: w})
	}
	const checkBudget = 104.0
	flat, err := cluster.RunContext(c.opts.Ctx, cluster.Config{
		BudgetW: checkBudget, Nodes: ns, Seed: c.opts.Seed, Chain: c.chain, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	one, err := cluster.RunFleetContext(c.opts.Ctx, cluster.FleetConfig{
		BudgetW: checkBudget, Nodes: ns, Seed: c.opts.Seed, Chain: c.chain, Levels: 1,
	})
	if err != nil {
		return nil, err
	}
	identical := flat.MachineSeconds == one.MachineSeconds &&
		flat.Makespan == one.Makespan &&
		flat.PeakTotalW == one.PeakTotalW &&
		flat.OverFrac == one.OverFrac

	// The timed fleet run: ~120 intervals per node, budget ample
	// enough that every node runs its top p-state.
	const ticks = 120
	start := time.Now()
	res, err := cluster.RunFleetContext(c.opts.Ctx, cluster.FleetConfig{
		BudgetW: 30 * float64(n),
		Nodes:   cluster.SyntheticFleet(n, ticks),
		Seed:    c.opts.Seed,
		Chain:   sensor.Chain{}, // ideal
		Levels:  levels,
		Fanout:  fanout,
		Workers: c.opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	out := &FleetScaleResult{
		Nodes:          res.Nodes,
		Levels:         res.Levels,
		Fanout:         res.Fanout,
		GroupsPerLevel: res.GroupsPerLevel,
		BudgetW:        30 * float64(n),
		Workers:        res.Workers,
		Epochs:         res.Epochs,
		Intervals:      res.Intervals,
		NodeTicks:      res.NodeTicks,
		WallSec:        wall,
		MakespanSec:    res.Makespan.Seconds(),
		PeakTotalW:     res.PeakTotalW,
		OverFrac:       res.OverFrac,
		FlatIdentical:  identical,
	}
	if wall > 0 {
		out.NodeTicksPerSec = float64(res.NodeTicks) / wall
	}
	return out, nil
}

// Print writes the fleet scaling report.
func (r *FleetScaleResult) Print(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Hierarchical fleet coordinator: %d nodes, %d level(s), fanout %d (groups per level %v)\n",
		r.Nodes, r.Levels, r.Fanout, r.GroupsPerLevel); err != nil {
		return err
	}
	fmt.Fprintf(w, "budget %.0f W, %d stepping worker(s)\n", r.BudgetW, r.Workers)
	fmt.Fprintf(w, "%d intervals, %d reallocation epochs, %d node-ticks in %.2f s = %.2fM node-ticks/sec\n",
		r.Intervals, r.Epochs, r.NodeTicks, r.WallSec, r.NodeTicksPerSec/1e6)
	fmt.Fprintf(w, "peak total power %.0f W; budget exceeded %.2f%% of intervals\n", r.PeakTotalW, r.OverFrac*100)
	verdict := "identical to the flat coordinator (deterministic)"
	if !r.FlatIdentical {
		verdict = "DIVERGED from the flat coordinator — determinism violated"
	}
	_, err := fmt.Fprintf(w, "one-level cross-check on 8 suite nodes: %s\n", verdict)
	return err
}
