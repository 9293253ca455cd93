// Package experiment regenerates every table and figure of the
// paper's evaluation on the simulated platform. Each entry point
// returns a typed result with a Print method that emits the same rows
// or series the paper reports; EXPERIMENTS.md records the paper-vs-
// measured comparison.
//
// All experiments are deterministic for a given Options.Seed: the
// platform runs on a virtual clock and every run derives its noise
// stream from the seed and workload name only, so policy comparisons
// are paired.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/model"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/trace"
)

// Options configures an experiment context.
type Options struct {
	// Seed drives measurement noise and workload jitter.
	Seed int64
	// Chain overrides the measurement chain; nil selects NIDefault.
	Chain *sensor.Chain
	// ScaleDown divides every workload's iteration count, trading
	// fidelity for speed (used by short test runs); 0/1 = full length.
	ScaleDown int
	// Parallelism bounds concurrent runs; 0 = GOMAXPROCS.
	Parallelism int
	// Repeats runs each configuration this many times on derived seeds
	// and keeps the run with the median execution time — the paper's
	// "execute three times and report the median run" methodology.
	// 0/1 = single run.
	Repeats int
	// Observer, when non-nil, is invoked once per executed run with the
	// workload and policy names; a non-nil hook it returns is
	// subscribed to that run's session. Hooks on the bus are purely
	// observational, so traces (and therefore cached results) are
	// unchanged. Each run key executes once per repetition, however
	// many figures request it concurrently; a key first run for its
	// totals alone executes again when a figure asks for its rows (see
	// Context). Runs may execute concurrently — the factory and its
	// hooks must tolerate that.
	Observer func(workload, policy string) machine.Hook
	// Ctx, when non-nil, cancels in-flight experiment work: once it
	// is done, no new run is started (forEachN stops launching and run
	// repetitions stop between executions) and the context's error is
	// returned. Results are unchanged for work that did complete —
	// cancellation only cuts the computation short. nil means never
	// canceled.
	Ctx context.Context
}

// ctxErr returns the configured context's error, if any.
func (c *Context) ctxErr() error {
	if c.opts.Ctx == nil {
		return nil
	}
	return c.opts.Ctx.Err()
}

// ctxDone returns the configured context's done channel (nil — which
// never fires in a select — when no context was configured).
func (c *Context) ctxDone() <-chan struct{} {
	if c.opts.Ctx == nil {
		return nil
	}
	return c.opts.Ctx.Done()
}

// Context owns the shared platform configuration and a cache of
// completed runs, so figures that share baselines (e.g. the
// unconstrained 2 GHz suite) don't recompute them.
//
// Each cached run either kept its per-interval trace rows or only its
// totals (duration, energy, instructions, transitions, degradations).
// Figures that read only totals request totals-only runs, which skip
// the rows; a run with rows serves any request. A key cached
// totals-only is run again with rows, replacing the entry, the first
// time a figure asks for its rows; runs are deterministic, so the
// totals are identical. Concurrent requests for one key share a
// single execution. An entry asks for its cached runs in one runSet
// call; runs outside the cache go through runUncached.
type Context struct {
	opts  Options
	table *pstate.Table
	chain sensor.Chain

	mu        sync.Mutex
	runs      map[string]*runEntry
	workloads map[string]phase.Workload

	tableIIIOnce sync.Once
	tableIII     *TableIIIResult
	tableIIIErr  error
}

// NewContext builds an experiment context.
func NewContext(opts Options) (*Context, error) {
	chain := sensor.NIDefault()
	if opts.Chain != nil {
		chain = *opts.Chain
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	if opts.ScaleDown < 0 {
		return nil, fmt.Errorf("experiment: negative ScaleDown")
	}
	ws, err := spec.All()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]phase.Workload, len(ws))
	for _, w := range ws {
		if opts.ScaleDown > 1 {
			w.Iterations = max(1, w.Repeats()/opts.ScaleDown)
		}
		byName[w.Name] = w
	}
	return &Context{
		opts:      opts,
		table:     pstate.PentiumM755(),
		chain:     chain,
		runs:      make(map[string]*runEntry),
		workloads: byName,
	}, nil
}

// Table returns the platform's p-state table.
func (c *Context) Table() *pstate.Table { return c.table }

// Workload returns the (possibly scaled) suite workload by name.
func (c *Context) Workload(name string) (phase.Workload, error) {
	w, ok := c.workloads[name]
	if !ok {
		return phase.Workload{}, fmt.Errorf("experiment: unknown workload %q", name)
	}
	return w, nil
}

// SuiteNames returns the benchmark names in suite order.
func (c *Context) SuiteNames() []string { return spec.Names() }

// govFactory builds a fresh governor per run (governors are stateful).
// A nil factory result means "no governor" (pinned start state).
type govFactory func() (machine.Governor, error)

// runSpec is one policy setting of a run grid: the run cache key's
// suffix after "<workload>/" and the factory of its governor.
type runSpec struct {
	key string
	gov govFactory
}

// staticSpec pins the run at freqMHz.
func (c *Context) staticSpec(freqMHz int) runSpec {
	name := fmt.Sprintf("static%d", freqMHz)
	idx := c.table.IndexOf(freqMHz)
	return runSpec{name, func() (machine.Governor, error) {
		if idx < 0 {
			return nil, fmt.Errorf("experiment: no p-state %d MHz", freqMHz)
		}
		return control.NewStaticClock(idx, name), nil
	}}
}

// pmSpec runs PerformanceMaximizer at limitW.
func pmSpec(limitW float64) runSpec {
	return runSpec{fmt.Sprintf("pm%.1f", limitW), func() (machine.Governor, error) {
		return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW})
	}}
}

// psSpec runs PowerSave at floor with the eq. 3 model's exponent.
func psSpec(floor, exponent float64) runSpec {
	return runSpec{fmt.Sprintf("ps%.2f/e%.2f", floor, exponent), func() (machine.Governor, error) {
		return control.NewPowerSave(control.PSConfig{
			Floor: floor,
			Perf:  model.PerfModel{Threshold: model.PaperDCUThreshold, Exponent: exponent},
		})
	}}
}

// A run request names whether its caller reads the run's trace rows
// or only its totals.
const (
	totalsOnly = false
	withRows   = true
)

// runEntry is one run key in the cache. done closes once run and err
// are set; rows records whether the run keeps its trace rows.
type runEntry struct {
	done chan struct{}
	rows bool
	run  *trace.Run
	err  error
}

// runSet requests the run of every workload under every spec in one
// parallel wave through the run cache and returns them indexed
// [spec][workload]. rows says whether the caller reads the runs' trace
// rows.
func (c *Context) runSet(rows bool, workloads []string, specs ...runSpec) ([][]*trace.Run, error) {
	out := make([][]*trace.Run, len(specs))
	for s := range out {
		out[s] = make([]*trace.Run, len(workloads))
	}
	err := c.forEachN(len(workloads)*len(specs), func(i int) (err error) {
		w, s := i/len(specs), i%len(specs)
		out[s][w], err = c.run(rows, workloads[w], specs[s])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run returns the workload's run under s, cached by key. A cached
// entry serves the request if it kept rows or the request reads only
// totals; otherwise the key runs (again) on fresh machines, and
// concurrent requests wait on that one execution. Failed runs are not
// cached.
func (c *Context) run(rows bool, workload string, s runSpec) (*trace.Run, error) {
	key := workload + "/" + s.key
	c.mu.Lock()
	e := c.runs[key]
	if e != nil && (e.rows || !rows) {
		c.mu.Unlock()
		<-e.done
		return e.run, e.err
	}
	e = &runEntry{done: make(chan struct{}), rows: rows}
	c.runs[key] = e
	c.mu.Unlock()
	defer close(e.done)

	e.run, e.err = c.execute(workload, s.gov, rows)
	if e.err != nil {
		c.mu.Lock()
		if c.runs[key] == e {
			delete(c.runs, key)
		}
		c.mu.Unlock()
	}
	return e.run, e.err
}

// execute runs the workload once per repetition, each on a fresh
// machine and governor, and returns the median run. rows keeps the
// runs' trace rows; the totals are the same either way.
func (c *Context) execute(workload string, f govFactory, rows bool) (*trace.Run, error) {
	w, err := c.Workload(workload)
	if err != nil {
		return nil, err
	}
	reps := c.opts.Repeats
	if reps < 1 {
		reps = 1
	}
	runs := make([]*trace.Run, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if err := c.ctxErr(); err != nil {
			return nil, err
		}
		// Each repetition gets its own noise/jitter stream; governors
		// are stateful, so each gets a fresh instance too.
		g, err := f()
		if err != nil {
			return nil, err
		}
		opts := machine.BatchOptions{RetainTraces: rows}
		if c.opts.Observer != nil {
			policy := "none"
			if g != nil {
				policy = g.Name()
			}
			if h := c.opts.Observer(w.Name, policy); h != nil {
				opts.Hooks = func(int) []machine.Hook { return []machine.Hook{h} }
			}
		}
		run, err := c.runLane(machine.Config{Seed: c.opts.Seed + int64(rep)*1_000_003}, w, g, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return medianByDuration(runs), nil
}

// runUncached runs w once under g at the context's seed, outside the
// run cache, so Options.Observer does not see it: for the studies that
// drive governors or machines of their own. cfg sets only the machine
// fields the study changes (start frequency, thermal model, fault
// plan); rows keeps the run's trace rows.
func (c *Context) runUncached(cfg machine.Config, w phase.Workload, g machine.Governor, rows bool) (*trace.Run, error) {
	cfg.Seed = c.opts.Seed
	return c.runLane(cfg, w, g, machine.BatchOptions{RetainTraces: rows})
}

// runLane runs w under g as a one-lane batch on a fresh machine built
// from cfg with the context's measurement chain.
func (c *Context) runLane(cfg machine.Config, w phase.Workload, g machine.Governor, opts machine.BatchOptions) (*trace.Run, error) {
	cfg.Chain = c.chain
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	b, err := machine.NewBatch([]machine.BatchNode{{Machine: m, Workload: w, Governor: g}}, opts)
	if err != nil {
		return nil, err
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	return b.Result(0), nil
}

// medianByDuration returns the run with the median execution time (the
// paper's SPEC reporting convention).
func medianByDuration(runs []*trace.Run) *trace.Run {
	if len(runs) == 1 {
		return runs[0]
	}
	sorted := make([]*trace.Run, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration < sorted[j].Duration })
	return sorted[len(sorted)/2]
}

// RunStatic runs a workload pinned at freqMHz. The run keeps its
// trace rows.
func (c *Context) RunStatic(workload string, freqMHz int) (*trace.Run, error) {
	return c.run(withRows, workload, c.staticSpec(freqMHz))
}

// RunPM runs a workload under PerformanceMaximizer at limitW. The run
// keeps its trace rows.
func (c *Context) RunPM(workload string, limitW float64) (*trace.Run, error) {
	return c.run(withRows, workload, pmSpec(limitW))
}

// RunPS runs a workload under PowerSave at the given floor using the
// eq. 3 model with the given exponent. The run keeps its trace rows.
func (c *Context) RunPS(workload string, floor, exponent float64) (*trace.Run, error) {
	return c.run(withRows, workload, psSpec(floor, exponent))
}

// suiteTime and suiteEnergy total the runs' execution times and
// measured energies.
func suiteTime(runs []*trace.Run) (total time.Duration) {
	for _, r := range runs {
		total += r.Duration
	}
	return total
}

func suiteEnergy(runs []*trace.Run) (total float64) {
	for _, r := range runs {
		total += r.MeasuredEnergyJ
	}
	return total
}

// forEachN runs fn over 0..n-1 with bounded parallelism. The first
// error stops new work from being launched (already-running jobs
// finish), and every error observed is returned joined rather than
// silently discarded.
func (c *Context) forEachN(n int, fn func(i int) error) error {
	par := c.opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := c.ctxErr(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		sem      = make(chan struct{}, par)
		stop     = make(chan struct{})
		stopOnce sync.Once
		mu       sync.Mutex
		errs     []error
		wg       sync.WaitGroup
	)
launch:
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			// A job failed: abandon the remaining work.
			break launch
		case <-c.ctxDone():
			// Canceled: stop launching; running jobs finish and the
			// context error joins whatever they returned.
			mu.Lock()
			errs = append(errs, c.ctxErr())
			mu.Unlock()
			break launch
		default:
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				stopOnce.Do(func() { close(stop) })
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// PowerLimits are the eight PM evaluation limits of §IV-A.2.
func PowerLimits() []float64 {
	return []float64{17.5, 16.5, 15.5, 14.5, 13.5, 12.5, 11.5, 10.5}
}

// Floors are the four PS evaluation performance floors of §IV-B.2.
func Floors() []float64 { return []float64{0.80, 0.60, 0.40, 0.20} }
