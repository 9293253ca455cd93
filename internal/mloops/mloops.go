// Package mloops implements the MS-Loops microbenchmark suite of the
// paper's Table I: DAXPY, FMA, MCOPY and MLOAD_RAND, each run at three
// data footprints chosen to exercise the L1 cache, the L2 cache and
// DRAM. The 4x3 = 12 configurations per p-state form the training set
// for the power and performance models.
//
// Each loop is defined as a memory-reference generator; package kernel
// runs it through the simulated cache hierarchy and the result is
// distilled into analytic phase parameters the platform executes.
package mloops

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aapm/internal/kernel"
	"aapm/internal/phase"
)

// Footprint selects the array size of a loop configuration.
type Footprint int

// The three footprints of the study.
const (
	// FootprintL1 fits comfortably in the 32 KB L1 data cache.
	FootprintL1 Footprint = iota
	// FootprintL2 exceeds L1 but fits the 2 MB L2.
	FootprintL2
	// FootprintMem exceeds L2 and streams from DRAM.
	FootprintMem
)

// Bytes returns the total data footprint in bytes.
func (f Footprint) Bytes() int {
	switch f {
	case FootprintL1:
		return 16 << 10
	case FootprintL2:
		return 256 << 10
	case FootprintMem:
		return 8 << 20
	default:
		return 0
	}
}

// String names the footprint ("16KB", "256KB", "8MB").
func (f Footprint) String() string {
	switch f {
	case FootprintL1:
		return "16KB"
	case FootprintL2:
		return "256KB"
	case FootprintMem:
		return "8MB"
	default:
		return fmt.Sprintf("footprint(%d)", int(f))
	}
}

// Footprints lists all three footprints in increasing size.
func Footprints() []Footprint { return []Footprint{FootprintL1, FootprintL2, FootprintMem} }

// Loop identifies one of the four microbenchmarks.
type Loop int

// The four MS-Loops.
const (
	DAXPY Loop = iota
	FMA
	MCOPY
	MLOADRand
)

// Loops lists all four loops.
func Loops() []Loop { return []Loop{DAXPY, FMA, MCOPY, MLOADRand} }

// String names the loop as the paper does.
func (l Loop) String() string {
	switch l {
	case DAXPY:
		return "DAXPY"
	case FMA:
		return "FMA"
	case MCOPY:
		return "MCOPY"
	case MLOADRand:
		return "MLOAD_RAND"
	default:
		return fmt.Sprintf("loop(%d)", int(l))
	}
}

// Description returns the paper's Table I description.
func (l Loop) Description() string {
	switch l {
	case DAXPY:
		return "Linpack daxpy: scales one FP array by a constant adding into a second"
	case FMA:
		return "floating-point multiply-add over adjacent pairs of one array; exercises the hardware prefetcher most"
	case MCOPY:
		return "sequential array copy; tests bandwidth limits of the accessed level"
	case MLOADRand:
		return "random loads over an array; exposes the latency of the accessed level"
	default:
		return ""
	}
}

// microarchitectural accounting per loop iteration. Instruction counts
// and core cycles approximate a 3-wide Pentium M executing the scalar
// loop bodies; MLP and SpecFactor are per-loop structural properties
// (streaming loops overlap misses, the random-load loop cannot).
type loopCosts struct {
	instrs     float64
	coreCycles float64
	mlp        float64
	spec       float64
}

func (l Loop) costs() loopCosts {
	switch l {
	case DAXPY:
		// load x, load y, mul, add, store y, index/branch.
		return loopCosts{instrs: 6, coreCycles: 4.0, mlp: 4, spec: 1.05}
	case FMA:
		// load a[2i], load a[2i+1], mul, add into register, branch.
		// Dense independent FP work: best ILP of the suite.
		return loopCosts{instrs: 5, coreCycles: 2.2, mlp: 6, spec: 1.02}
	case MCOPY:
		// load a, store b, index/branch.
		return loopCosts{instrs: 3, coreCycles: 1.6, mlp: 4, spec: 1.04}
	case MLOADRand:
		// compute index, load, accumulate, branch; serialized misses.
		return loopCosts{instrs: 4, coreCycles: 2.4, mlp: 1, spec: 1.08}
	default:
		return loopCosts{}
	}
}

const elemBytes = 8 // float64 elements

// generator implements kernel.Generator for one loop+footprint.
type generator struct {
	loop  Loop
	bytes uint64
	i     uint64
	n     uint64 // elements per array
	rng   uint64 // LCG state for MLOAD_RAND
	costs loopCosts
	refs  [3]kernel.Ref // Next's reused reference buffer
}

// NewGenerator returns the reference generator for loop l at
// footprint f. Array bases are spaced so distinct arrays do not alias.
func NewGenerator(l Loop, f Footprint) kernel.Generator {
	total := uint64(f.Bytes())
	g := &generator{loop: l, bytes: total, costs: l.costs()}
	switch l {
	case DAXPY, MCOPY:
		g.n = total / 2 / elemBytes // two arrays share the footprint
	default:
		g.n = total / elemBytes
	}
	g.Reset()
	return g
}

func (g *generator) Name() string { return fmt.Sprintf("%s-%s", g.loop, footprintOf(g.bytes)) }

func footprintOf(bytes uint64) Footprint {
	for _, f := range Footprints() {
		if uint64(f.Bytes()) == bytes {
			return f
		}
	}
	return FootprintL1
}

func (g *generator) Reset() {
	g.i = 0
	g.rng = 0x9E3779B97F4A7C15
}

// array base addresses, far apart to avoid aliasing.
const (
	baseA = 0x10000000
	baseB = 0x50000000
)

// Next returns the next loop iteration. Its Refs alias the generator's
// own buffer, so they are valid only until the next call.
func (g *generator) Next() Op {
	c := g.costs
	op := Op{Instrs: c.instrs, CoreCycles: c.coreCycles}
	r := &g.refs
	switch g.loop {
	case DAXPY:
		r[0] = kernel.Ref{Addr: baseA + g.i*elemBytes}
		r[1] = kernel.Ref{Addr: baseB + g.i*elemBytes}
		r[2] = kernel.Ref{Addr: baseB + g.i*elemBytes, Write: true}
		op.Refs = r[:3]
	case FMA:
		// adjacent pair a[2i], a[2i+1]; wrap at n elements.
		idx := 2 * g.i
		if idx >= g.n {
			idx -= g.n
		}
		next := idx + 1
		if next == g.n {
			next = 0
		}
		r[0] = kernel.Ref{Addr: baseA + idx*elemBytes}
		r[1] = kernel.Ref{Addr: baseA + next*elemBytes}
		op.Refs = r[:2]
	case MCOPY:
		r[0] = kernel.Ref{Addr: baseA + g.i*elemBytes}
		r[1] = kernel.Ref{Addr: baseB + g.i*elemBytes, Write: true}
		op.Refs = r[:2]
	case MLOADRand:
		g.rng = g.rng*6364136223846793005 + 1442695040888963407
		idx := (g.rng >> 17) % g.n
		r[0] = kernel.Ref{Addr: baseA + idx*elemBytes}
		op.Refs = r[:1]
	}
	if g.i++; g.i == g.n {
		g.i = 0
	}
	return op
}

// Op re-exports kernel.Op for generator construction.
type Op = kernel.Op

// Config names one training-set configuration.
type Config struct {
	Loop      Loop
	Footprint Footprint
}

// String returns e.g. "FMA-256KB".
func (c Config) String() string { return fmt.Sprintf("%s-%s", c.Loop, c.Footprint) }

// Configs returns all 12 training configurations (4 loops x 3
// footprints), loops-major as the paper tabulates them.
func Configs() []Config {
	var out []Config
	for _, l := range Loops() {
		for _, f := range Footprints() {
			out = append(out, Config{Loop: l, Footprint: f})
		}
	}
	return out
}

// characterization window sizes: enough iterations to cycle the
// largest footprint several times so steady-state cache behaviour
// dominates.
const (
	warmupOps = 2_000_000
	windowOps = 2_000_000
)

// Characterize runs the configuration through a fresh simulated memory
// hierarchy and returns its analytic phase parameters. Instructions is
// the phase length used when the loop runs as a workload.
func Characterize(c Config, instructions float64) (phase.Params, error) {
	h, err := kernel.NewPentiumMHierarchy()
	if err != nil {
		return phase.Params{}, err
	}
	g := NewGenerator(c.Loop, c.Footprint)
	prof, err := kernel.Characterize(g, h, warmupOps, windowOps)
	if err != nil {
		return phase.Params{}, fmt.Errorf("mloops: characterize %s: %w", c, err)
	}
	costs := c.Loop.costs()
	p := phase.Params{
		Name:         c.String(),
		Instructions: instructions,
		CPICore:      prof.CPICore(),
		L2APKI:       prof.L2APKI(),
		MemAPKI:      prof.MemAPKI(),
		MemBPI:       float64(prof.MemTraffic) * 64 / prof.Instructions,
		MLP:          costs.mlp,
		SpecFactor:   costs.spec,
		StallFrac:    0.05,
	}
	if err := p.Validate(); err != nil {
		return phase.Params{}, fmt.Errorf("mloops: %s characterization implausible: %w", c, err)
	}
	return p, nil
}

// DefaultInstructions is the per-run instruction count for a loop used
// as a workload: long enough for hundreds of 10 ms samples at 2 GHz.
const DefaultInstructions = 20e9

// Workload returns the configuration as a runnable single-phase
// workload. Microbenchmarks are steady by construction (zero jitter),
// matching the paper's observation that their behaviour is stable
// within and across runs.
func Workload(c Config) (phase.Workload, error) {
	p, err := Characterize(c, DefaultInstructions)
	if err != nil {
		return phase.Workload{}, err
	}
	w := phase.Workload{
		Name:   c.String(),
		Phases: []phase.Params{p},
	}
	if err := w.Validate(); err != nil {
		return phase.Workload{}, err
	}
	return w, nil
}

var trainingCache struct {
	once   sync.Once
	params []phase.Params
	err    error
}

// TrainingSet characterizes all 12 configurations on
// runtime.GOMAXPROCS(0) goroutines; entry i belongs to Configs()[i].
// Characterization simulates millions of cache accesses, so the result
// is computed once per process and shared; callers must not mutate the
// returned slice.
func TrainingSet() ([]phase.Params, error) {
	trainingCache.once.Do(func() {
		trainingCache.params, trainingCache.err = characterizeAll(Configs(), runtime.GOMAXPROCS(0))
	})
	return trainingCache.params, trainingCache.err
}

// characterizeAll runs Characterize over cfgs on up to workers
// goroutines and returns the results in cfgs order. Every call builds
// its own hierarchy and generator, so the results do not depend on the
// worker count. Work is handed out largest footprint first so the
// slowest configuration never starts last. Of several failures, the one
// at the lowest index is reported.
func characterizeAll(cfgs []Config, workers int) ([]phase.Params, error) {
	order := make([]int, len(cfgs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cfgs[order[a]].Footprint.Bytes() > cfgs[order[b]].Footprint.Bytes()
	})
	out := make([]phase.Params, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, len(cfgs))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(order); k = int(next.Add(1) - 1) {
				i := order[k]
				out[i], errs[i] = Characterize(cfgs[i], DefaultInstructions)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
