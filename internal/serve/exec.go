package serve

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"aapm/internal/cluster"
	"aapm/internal/control"
	"aapm/internal/experiment"
	"aapm/internal/machine"
	"aapm/internal/obs"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// execute runs one job under its context, dispatching on the spec
// kind. It returns the JSON result payload and, for single-machine
// jobs, the recorded run (the CSV view). Cancellation and deadline
// both surface as ctx's error.
func (s *Service) execute(ctx context.Context, j *Job) (Result, *trace.Run, error) {
	switch {
	case j.Spec.Experiment != "":
		return s.runExperiment(ctx, j)
	case j.Spec.Nodes > 1:
		return s.runCluster(ctx, j)
	default:
		return s.runSingle(ctx, j)
	}
}

// chainFor resolves the spec's measurement chain name.
func chainFor(name string) sensor.Chain {
	if name == ChainNI {
		return sensor.NIDefault()
	}
	return sensor.Chain{} // ideal
}

// runSingle executes one workload under one governor on a fresh
// machine — the same entry points aapm-run uses, stepped here so the
// job's context is honored between intervals; the dashboard's runs
// come through here as jobs too. The trace is identical to a direct
// machine run of the same spec (the hooks on the bus are purely
// observational), which the golden-through-serve test pins
// byte-for-byte.
func (s *Service) runSingle(ctx context.Context, j *Job) (Result, *trace.Run, error) {
	js := j.Spec
	w, err := spec.ByName(js.Workload)
	if err != nil {
		return Result{}, nil, err
	}
	if js.Iterations > 0 {
		w.Iterations = js.Iterations
	}
	mcfg := machine.Config{Chain: chainFor(js.Chain), Seed: js.Seed, MaxTicks: js.MaxTicks}
	if js.Thermal {
		tc := thermal.PentiumMThermal()
		mcfg.Thermal = &tc
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return Result{}, nil, err
	}
	gov, err := control.Parse(js.Governor, m.Table())
	if err != nil {
		return Result{}, nil, err
	}
	// Label telemetry with the policy the run records.
	policy := machine.StaticPolicy
	if gov != nil {
		policy = gov.Name()
	}
	// The observer hooks turn on the tick engine's full event order,
	// whose trace is byte-identical to a bare run's — the
	// golden-through-serve test pins that equivalence.
	batch, err := machine.NewBatch([]machine.BatchNode{{Machine: m, Workload: w, Governor: gov}}, machine.BatchOptions{
		RetainTraces: true,
		Hooks: func(int) []machine.Hook {
			return []machine.Hook{
				newProgressHook(j.events, j.flight, "", s.cfg.ProgressEvery),
				telemetry.NewObserver(s.reg, js.Workload, policy),
			}
		},
	})
	if err != nil {
		return Result{}, nil, err
	}
	stepStart := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, nil, err
		}
		if !batch.StepNode(0) {
			break
		}
	}
	if err := batch.NodeErr(0); err != nil {
		return Result{}, nil, err
	}
	run := batch.Result(0)
	if tr := obs.FromContext(ctx); tr.Sampled() {
		tr.Record(obs.Span{
			Name:      "shard-step",
			Start:     stepStart,
			VirtDurUS: float64(run.Duration) / float64(time.Microsecond),
			WallDurUS: float64(time.Since(stepStart)) / float64(time.Microsecond),
			Attrs: map[string]float64{
				"nodes": 1, "ticks": float64(run.Ticks),
			},
		})
	}
	return Result{
		ID:          j.ID,
		Workload:    run.Workload,
		Policy:      run.Policy,
		DurationSec: run.Duration.Seconds(),
		EnergyJ:     run.EnergyJ,
		AvgPowerW:   run.AvgPowerW(),
		Transitions: run.Transitions,
		Ticks:       run.Ticks,
	}, run, nil
}

// runCluster co-simulates Nodes copies of the workload under the
// shared-budget coordinator (cluster.RunContext), streaming per-node
// progress into the job's event log.
func (s *Service) runCluster(ctx context.Context, j *Job) (Result, *trace.Run, error) {
	js := j.Spec
	w, err := spec.ByName(js.Workload)
	if err != nil {
		return Result{}, nil, err
	}
	if js.Iterations > 0 {
		w.Iterations = js.Iterations
	}
	nodes := make([]cluster.Node, js.Nodes)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("%s-%d", js.Workload, i), Workload: w}
	}
	if js.Levels > 1 {
		return s.runFleet(ctx, j, nodes)
	}
	res, err := cluster.RunContext(ctx, cluster.Config{
		BudgetW:   js.BudgetW,
		Nodes:     nodes,
		Seed:      js.Seed,
		Chain:     chainFor(js.Chain),
		Telemetry: s.reg,
		// Per-node aapm_* series on /metrics, then the job's progress
		// stream.
		Observe: func(i int) []machine.Hook {
			name := nodes[i].Name
			return []machine.Hook{
				telemetry.NewObserver(s.reg, name, "pm"),
				newProgressHook(j.events, j.flight, name, s.cfg.ProgressEvery),
			}
		},
	})
	if err != nil {
		// The coordinator wraps a context abort; report the cause so
		// the scheduler classifies it as canceled/aborted, not failed.
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, nil, cerr
		}
		return Result{}, nil, err
	}
	out := Result{
		ID:             j.ID,
		Workload:       js.Workload,
		Policy:         "cluster-pm",
		MakespanSec:    res.Makespan.Seconds(),
		MachineSeconds: res.MachineSeconds,
		PeakTotalW:     res.PeakTotalW,
	}
	for i, run := range res.Runs {
		out.Nodes = append(out.Nodes, NodeResult{
			Name:        res.Names[i],
			DurationSec: run.Duration.Seconds(),
			EnergyJ:     run.EnergyJ,
			AvgPowerW:   run.AvgPowerW(),
			Transitions: run.Transitions,
		})
		out.EnergyJ += run.EnergyJ
		out.Transitions += run.Transitions
		out.Ticks += run.Ticks
	}
	out.DurationSec = res.Makespan.Seconds()
	return out, nil, nil
}

// fleetNodeListCap bounds the per-node entries a fleet job's result
// carries: a 10⁵-node result would otherwise be megabytes of JSON the
// caller almost never wants. The aggregates always cover every node.
const fleetNodeListCap = 256

// runFleet co-simulates the nodes under the hierarchical fleet
// coordinator (cluster.RunFleetContext). Per-interval traces are not
// retained — fleet jobs report aggregates plus a capped per-node
// summary list.
func (s *Service) runFleet(ctx context.Context, j *Job, nodes []cluster.Node) (Result, *trace.Run, error) {
	js := j.Spec
	res, err := cluster.RunFleetContext(ctx, cluster.FleetConfig{
		BudgetW:   js.BudgetW,
		Nodes:     nodes,
		Seed:      js.Seed,
		Chain:     chainFor(js.Chain),
		Levels:    js.Levels,
		Fanout:    js.Fanout,
		Telemetry: s.reg,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, nil, cerr
		}
		return Result{}, nil, err
	}
	out := Result{
		ID:             j.ID,
		Workload:       js.Workload,
		Policy:         fmt.Sprintf("fleet-pm/L%d", res.Levels),
		MakespanSec:    res.Makespan.Seconds(),
		MachineSeconds: res.MachineSeconds,
		PeakTotalW:     res.PeakTotalW,
		Ticks:          int(res.NodeTicks),
	}
	for i, run := range res.Runs {
		out.EnergyJ += run.EnergyJ
		out.Transitions += run.Transitions
		if i >= fleetNodeListCap {
			continue
		}
		out.Nodes = append(out.Nodes, NodeResult{
			Name:        res.Names[i],
			DurationSec: run.Duration.Seconds(),
			EnergyJ:     run.EnergyJ,
			AvgPowerW:   run.AvgPowerW(),
			Transitions: run.Transitions,
		})
	}
	out.DurationSec = res.Makespan.Seconds()
	return out, nil, nil
}

// runExperiment computes one registry entry on a fresh experiment
// context wired to the job's context (Options.Ctx) and event log
// (Options.Observer), capturing the rendered output as the result.
func (s *Service) runExperiment(ctx context.Context, j *Job) (Result, *trace.Run, error) {
	js := j.Spec
	var entry *experiment.Named
	for _, e := range experiment.Registry() {
		if e.Name == js.Experiment {
			entry = &e
			break
		}
	}
	if entry == nil {
		return Result{}, nil, fmt.Errorf("serve: unknown experiment %q", js.Experiment)
	}
	c, err := experiment.NewContext(experiment.Options{
		Seed:      js.Seed,
		ScaleDown: js.Scale,
		// One core per job: the service's worker pool is the
		// parallelism; an experiment fanning out to GOMAXPROCS inside
		// each worker would oversubscribe the host.
		Parallelism: 1,
		Ctx:         ctx,
		Observer: func(workload, policy string) machine.Hook {
			return newProgressHook(j.events, j.flight, workload+"/"+policy, s.cfg.ProgressEvery)
		},
	})
	if err != nil {
		return Result{}, nil, err
	}
	printable, err := entry.Run(c)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, nil, cerr
		}
		return Result{}, nil, err
	}
	var buf bytes.Buffer
	if err := printable.Print(&buf); err != nil {
		return Result{}, nil, err
	}
	return Result{ID: j.ID, Experiment: js.Experiment, Output: buf.String()}, nil, nil
}
