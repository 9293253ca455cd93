// Package kernel executes memory-reference kernels through the
// simulated cache hierarchy to characterize them from first
// principles.
//
// The MS-Loops microbenchmarks (package mloops) are defined as
// reference generators; this package runs them against the L1/L2/DRAM
// models and distills the result into the analytic phase parameters
// (package phase) the platform executes at scale. This keeps the
// model-training pipeline honest: the training data's cache behaviour
// is simulated, not asserted.
package kernel

import (
	"fmt"

	"aapm/internal/cache"
	"aapm/internal/memsim"
)

// Ref is one memory reference of a kernel operation.
type Ref struct {
	Addr  uint64
	Write bool
}

// Op is one loop iteration: its memory references plus the retired
// instructions and core (L1-hit) cycles it accounts for.
type Op struct {
	Refs       []Ref
	Instrs     float64
	CoreCycles float64
}

// Generator produces a kernel's reference stream.
type Generator interface {
	// Name labels the kernel.
	Name() string
	// Reset rewinds the generator to the start of the loop.
	Reset()
	// Next returns the next operation. Generators cycle indefinitely
	// over their footprint. Op.Refs is valid only until the next call:
	// a generator may reuse its backing array, so callers must not
	// keep the slice.
	Next() Op
}

// Level identifies where an access was served.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "MEM"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Hierarchy couples the two cache levels, the stream prefetcher and
// the DRAM model into the platform's memory system.
type Hierarchy struct {
	L1   *cache.Cache
	L2   *cache.Cache
	Pref *cache.StreamPrefetcher
	Mem  *memsim.Memory

	memAccesses uint64 // demand L2 misses + writebacks reaching DRAM
	prefMem     uint64 // prefetch fills fetched from DRAM
}

// NewPentiumMHierarchy assembles the paper platform's memory system.
func NewPentiumMHierarchy() (*Hierarchy, error) {
	l1, err := cache.New(cache.PentiumML1D())
	if err != nil {
		return nil, fmt.Errorf("kernel: l1: %w", err)
	}
	l2, err := cache.New(cache.PentiumML2())
	if err != nil {
		return nil, fmt.Errorf("kernel: l2: %w", err)
	}
	mem, err := memsim.New(memsim.DDR333())
	if err != nil {
		return nil, fmt.Errorf("kernel: mem: %w", err)
	}
	return &Hierarchy{
		L1:   l1,
		L2:   l2,
		Pref: cache.NewStreamPrefetcher(l1.LineBytes(), 8, 2),
		Mem:  mem,
	}, nil
}

// Access performs one data access and returns the serving level.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	if h.L1.Access(addr, write).Hit {
		return LevelL1
	}
	// L1 miss: consult L2 (demand), train the prefetcher.
	for _, pf := range h.Pref.OnMiss(addr) {
		if !h.L2.Contains(pf) {
			h.Mem.Access(pf, h.L2.LineBytes())
			h.prefMem++
			if r := h.L2.Fill(pf); r.Writeback {
				h.Mem.Access(r.WritebackAddr, h.L2.LineBytes())
				h.memAccesses++
			}
		}
	}
	res := h.L2.Access(addr, write)
	if res.Writeback {
		h.Mem.Access(res.WritebackAddr, h.L2.LineBytes())
		h.memAccesses++
	}
	if res.Hit {
		return LevelL2
	}
	h.Mem.Access(addr, h.L2.LineBytes())
	h.memAccesses++
	return LevelMem
}

// MemAccesses returns demand+writeback DRAM accesses (prefetches
// excluded).
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// PrefetchMemAccesses returns DRAM accesses made on behalf of the
// prefetcher.
func (h *Hierarchy) PrefetchMemAccesses() uint64 { return h.prefMem }

// Profile is the distilled characterization of a kernel window.
type Profile struct {
	// Instructions and CoreCycles accumulate the generator's own
	// accounting over the measured window.
	Instructions float64
	CoreCycles   float64
	// Served counts accesses by serving level.
	ServedL1, ServedL2, ServedMem uint64
	// MemTraffic is total DRAM accesses including writebacks and
	// prefetches.
	MemTraffic uint64
	// RowHitRate is the DRAM open-row hit fraction over the window.
	RowHitRate float64
}

// Accesses returns the total demand accesses in the window.
func (p Profile) Accesses() uint64 { return p.ServedL1 + p.ServedL2 + p.ServedMem }

// CPICore returns core cycles per instruction.
func (p Profile) CPICore() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.CoreCycles / p.Instructions
}

// L2APKI returns L1 misses (L2 demand accesses) per kilo-instruction.
func (p Profile) L2APKI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.ServedL2+p.ServedMem) / p.Instructions * 1000
}

// MemAPKI returns DRAM demand accesses per kilo-instruction.
func (p Profile) MemAPKI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.ServedMem) / p.Instructions * 1000
}

// Characterize runs the generator for warmup ops (to populate caches)
// and then a measured window of ops, returning the window's Profile.
func Characterize(g Generator, h *Hierarchy, warmup, window int) (Profile, error) {
	if h == nil {
		return Profile{}, fmt.Errorf("kernel: nil hierarchy")
	}
	if window <= 0 {
		return Profile{}, fmt.Errorf("kernel: non-positive window %d", window)
	}
	g.Reset()
	for i := 0; i < warmup; i++ {
		op := g.Next()
		for _, r := range op.Refs {
			h.Access(r.Addr, r.Write)
		}
	}
	memBefore := h.Mem.Stats()
	var p Profile
	for i := 0; i < window; i++ {
		op := g.Next()
		p.Instructions += op.Instrs
		p.CoreCycles += op.CoreCycles
		for _, r := range op.Refs {
			switch h.Access(r.Addr, r.Write) {
			case LevelL1:
				p.ServedL1++
			case LevelL2:
				p.ServedL2++
			case LevelMem:
				p.ServedMem++
			}
		}
	}
	memAfter := h.Mem.Stats()
	p.MemTraffic = memAfter.Accesses - memBefore.Accesses
	if d := memAfter.Accesses - memBefore.Accesses; d > 0 {
		p.RowHitRate = float64(memAfter.RowHits-memBefore.RowHits) / float64(d)
	}
	return p, nil
}
