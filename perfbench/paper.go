package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"aapm/internal/experiment"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/mloops"
	"aapm/internal/model"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/trace"
)

// paperEntries are the registry entries that regenerate the paper's
// evaluation: Tables I-IV and Figures 1, 2 and 5-11.
var paperEntries = map[string]bool{
	"table1": true, "table2": true, "table3": true, "table4": true,
	"fig1": true, "fig2": true, "fig5": true, "fig6": true, "fig7": true,
	"fig8": true, "fig9": true, "fig10": true, "fig11": true,
}

func paperOptions(o opts, runs *atomic.Int64) experiment.Options {
	opt := experiment.Options{
		Seed:        o.seed,
		Parallelism: runtime.NumCPU(),
		Repeats:     3, // the paper's median-of-three
		// A nil hook leaves the run on its fast path; the callback
		// only counts executed runs.
		Observer: func(string, string) machine.Hook {
			runs.Add(1)
			return nil
		},
	}
	if o.small {
		opt.ScaleDown = 16
	}
	return opt
}

// paperSetup measures experiment.NewContext in a fresh process.
func paperSetup(o opts) (childOut, error) {
	var runs atomic.Int64
	t := time.Now()
	if _, err := experiment.NewContext(paperOptions(o, &runs)); err != nil {
		return childOut{}, err
	}
	return childOut{Values: map[string]float64{"setup_s": time.Since(t).Seconds()}}, nil
}

// paperSample regenerates the evaluation on a fresh context: the
// MS-Loops training set first (the characterization table1 would
// otherwise trigger), then every entry, rendered. Its digest covers the
// rendered text. The traced variant adds spans and then probes the
// layers off the blocking path.
func paperSample(o opts) (childOut, error) {
	var tr *tracer
	if o.variant == "traced" {
		tr = newTracer(o.traceID, "paper")
	}
	var runs atomic.Int64
	t0 := time.Now()
	root := tr.begin("paper.sample", o.parent)
	sp := tr.begin("experiment.new_context", root)
	c, err := experiment.NewContext(paperOptions(o, &runs))
	if err != nil {
		return childOut{}, err
	}
	setup := time.Since(t0)
	tr.end(sp)

	sp = tr.begin("mloops.training_set", root)
	t := time.Now()
	set, err := mloops.TrainingSet()
	if err != nil {
		return childOut{}, err
	}
	char := time.Since(t)
	tr.end(sp)

	sweep := tr.begin("experiment.sweep", root)
	t = time.Now()
	var text bytes.Buffer
	var entryMs []float64
	for _, e := range experiment.Registry() {
		if !paperEntries[e.Name] {
			continue
		}
		es := tr.begin("experiment.entry."+e.Name, sweep)
		res, err := e.Run(c)
		if err != nil {
			return childOut{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(&text, "==== %s ====\n", e.Name)
		if err := res.Print(&text); err != nil {
			return childOut{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		// A table or figure is due when the run starts.
		entryMs = append(entryMs, ms(time.Since(t0)))
		tr.end(es)
	}
	sweepS := time.Since(t)
	tr.end(sweep)
	wall := time.Since(t0)
	tr.end(root)

	d := newDigest()
	d.bytes(text.Bytes())
	out := childOut{
		Values: map[string]float64{
			"setup_s":                       setup.Seconds(),
			"wall_s":                        wall.Seconds(),
			"jobs_per_s":                    float64(len(entryMs)) / (wall - setup).Seconds(),
			"job_p50_ms":                    quantile(entryMs, 0.5),
			"mloops.characterize_s":         char.Seconds(),
			"experiment.sweep_s":            sweepS.Seconds(),
			"experiment.runs":               float64(runs.Load()),
			"bench.paper_unattributed_frac": (wall - setup - char - sweepS).Seconds() / wall.Seconds(),
		},
		Digest:    d.sum(),
		Attempted: 1,
	}
	if len(entryMs) != len(paperEntries) {
		out.Failed = 1
		out.Err = fmt.Sprintf("paper rendered %d of %d entries", len(entryMs), len(paperEntries))
	}
	if tr != nil {
		if err := paperProbes(o, tr, set, out.Values); err != nil {
			return childOut{}, err
		}
		out.Spans = tr.all()
	}
	return out, nil
}

// countingGen wraps a kernel.Generator and counts the references it
// issues.
type countingGen struct {
	kernel.Generator
	refs uint64
}

func (g *countingGen) Next() kernel.Op {
	op := g.Generator.Next()
	g.refs += uint64(len(op.Refs))
	return op
}

// Characterization windows as mloops.Characterize uses them.
const (
	charWarmupOps = 2_000_000
	charWindowOps = 2_000_000
)

// paperProbes times the paper's layers one call at a time, after the
// sample's blocking path: the cache hierarchy per access, model
// training, and single experiment runs per simulated tick.
func paperProbes(o opts, tr *tracer, set []phase.Params, v map[string]float64) error {
	probes := tr.begin("paper.probes", "")
	defer tr.end(probes)

	sp := tr.begin("kernel.characterize", probes)
	var refs uint64
	var wall time.Duration
	for _, c := range []mloops.Config{
		{Loop: mloops.DAXPY, Footprint: mloops.FootprintL1},
		{Loop: mloops.FMA, Footprint: mloops.FootprintL2},
		{Loop: mloops.MCOPY, Footprint: mloops.FootprintMem},
		{Loop: mloops.MLOADRand, Footprint: mloops.FootprintL2},
	} {
		h, err := kernel.NewPentiumMHierarchy()
		if err != nil {
			return err
		}
		g := &countingGen{Generator: mloops.NewGenerator(c.Loop, c.Footprint)}
		t := time.Now()
		if _, err := kernel.Characterize(g, h, charWarmupOps, charWindowOps); err != nil {
			return err
		}
		wall += time.Since(t)
		refs += g.refs
	}
	tr.end(sp)
	v["kernel.hierarchy_ns_per_access"] = float64(wall.Nanoseconds()) / float64(refs)
	v["kernel.accesses"] = float64(refs)

	sp = tr.begin("model.collect", probes)
	t := time.Now()
	points, err := model.CollectTrainingData(machine.Config{Chain: sensor.NIDefault(), Seed: o.seed}, set, trainingInstructions)
	if err != nil {
		return err
	}
	v["model.collect_s"] = time.Since(t).Seconds()
	tr.end(sp)

	sp = tr.begin("model.fit", probes)
	t = time.Now()
	if _, err := model.FitPowerModel(pstate.PentiumM755(), points); err != nil {
		return err
	}
	if _, err := model.FitPerfModel(points); err != nil {
		return err
	}
	v["model.fit_s"] = time.Since(t).Seconds()
	tr.end(sp)

	sp = tr.begin("experiment.run", probes)
	opt := experiment.Options{Seed: o.seed, Parallelism: 1}
	if o.small {
		opt.ScaleDown = 16
	}
	c, err := experiment.NewContext(opt)
	if err != nil {
		return err
	}
	var rows int
	wall = 0
	for _, w := range []string{"ammp", "gap", "swim", "galgel"} {
		for _, run := range []func() (*trace.Run, error){
			func() (*trace.Run, error) { return c.RunPM(w, 14.5) },
			func() (*trace.Run, error) { return c.RunPS(w, 0.8, model.PaperExponent) },
			func() (*trace.Run, error) { return c.RunStatic(w, 1600) },
		} {
			t := time.Now()
			r, err := run()
			if err != nil {
				return err
			}
			wall += time.Since(t)
			rows += len(r.Rows)
		}
	}
	tr.end(sp)
	v["experiment.run_ns_per_tick"] = float64(wall.Nanoseconds()) / float64(rows)
	return nil
}

// trainingInstructions is the per-run length experiment's Table II
// trains the power model with.
const trainingInstructions = 3e8

// paperLedger runs the paper untraced and traced, each in a fresh
// process; the traced sample also probes the layers off its path.
func paperLedger(o opts, root *tracer) (ledgerOut, error) {
	l := ledgerOut{values: map[string]float64{}}
	ref, err := loadReference()
	if err != nil {
		return l, err
	}
	got, err := l.spawnVariants(o, root, ref, "plain", "traced")
	if err != nil {
		return l, err
	}
	for k, v := range got["traced"].Values {
		l.values[k] = v
	}
	l.values["bench.paper_trace_overhead_frac"] = got["traced"].Values["wall_s"]/got["plain"].Values["wall_s"] - 1
	return l, nil
}
