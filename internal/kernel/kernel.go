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
	"math"
	"slices"

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

// Periodic is implemented by generators whose reference stream
// repeats. Period promises that after Reset the Op stream repeats every
// Period() calls to Next: addresses, write flags, Instrs and CoreCycles
// alike. 0 means the stream has no period. Characterize uses the period
// to skip whole cycles once the hierarchy's state repeats as well.
type Periodic interface {
	Period() int
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

	memAccesses uint64               // demand L2 misses + writebacks reaching DRAM
	prefMem     uint64               // prefetch fills fetched from DRAM
	served      [LevelMem + 1]uint64 // accesses by serving level

	steady steady // Characterize's fast-forward buffers, allocated on first use
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
		h.served[LevelL1]++
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
		h.served[LevelL2]++
		return LevelL2
	}
	h.Mem.Access(addr, h.L2.LineBytes())
	h.memAccesses++
	h.served[LevelMem]++
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
//
// If g implements Periodic, Characterize compares the hierarchy's state
// at every multiple of the period with its state one period earlier.
// Once the two match, every later cycle repeats the last one exactly,
// so whole cycles are accounted for without simulating them. The
// Profile and every counter of h come out exactly as a full simulation
// leaves them (see steady).
func Characterize(g Generator, h *Hierarchy, warmup, window int) (Profile, error) {
	if h == nil {
		return Profile{}, fmt.Errorf("kernel: nil hierarchy")
	}
	if warmup < 0 {
		return Profile{}, fmt.Errorf("kernel: negative warmup %d", warmup)
	}
	if window <= 0 {
		return Profile{}, fmt.Errorf("kernel: non-positive window %d", window)
	}
	g.Reset()
	period := 0
	if pg, ok := g.(Periodic); ok {
		period = pg.Period()
	}
	var p Profile
	var before counters
	if period > 0 {
		before = h.fastForward(g, period, warmup, window, &p)
	} else {
		h.run(g, warmup, nil)
		before = h.counters()
		h.run(g, window, &p)
	}
	d := h.counters().sub(before)
	p.ServedL1 = d.served[LevelL1]
	p.ServedL2 = d.served[LevelL2]
	p.ServedMem = d.served[LevelMem]
	p.MemTraffic = d.mem.Accesses
	if d.mem.Accesses > 0 {
		p.RowHitRate = float64(d.mem.RowHits) / float64(d.mem.Accesses)
	}
	return p, nil
}

// run simulates the next n ops of g. If sum is not nil, it adds each
// op's costs to it in order.
func (h *Hierarchy) run(g Generator, n int, sum *Profile) {
	for range n {
		op := g.Next()
		if sum != nil {
			sum.Instructions += op.Instrs
			sum.CoreCycles += op.CoreCycles
		}
		for _, r := range op.Refs {
			h.Access(r.Addr, r.Write)
		}
	}
}

// counters is every count a simulated access can move.
type counters struct {
	l1, l2               cache.Stats
	mem                  memsim.Stats
	issued, ties         uint64 // prefetcher
	memAccesses, prefMem uint64
	served               [LevelMem + 1]uint64
}

func (h *Hierarchy) counters() counters {
	return counters{
		l1:          h.L1.Stats(),
		l2:          h.L2.Stats(),
		mem:         h.Mem.Stats(),
		issued:      h.Pref.Issued(),
		ties:        h.Pref.Ties(),
		memAccesses: h.memAccesses,
		prefMem:     h.prefMem,
		served:      h.served,
	}
}

// sub returns the counts c gained since o.
func (c counters) sub(o counters) counters {
	d := counters{
		l1:          c.l1.Sub(o.l1),
		l2:          c.l2.Sub(o.l2),
		mem:         c.mem.Sub(o.mem),
		issued:      c.issued - o.issued,
		ties:        c.ties - o.ties,
		memAccesses: c.memAccesses - o.memAccesses,
		prefMem:     c.prefMem - o.prefMem,
	}
	for l := range d.served {
		d.served[l] = c.served[l] - o.served[l]
	}
	return d
}

// steady is Characterize's fast-forward state for a periodic generator.
//
// Why skipping is exact: the state that decides how an access is
// served is the L1 and L2 way words, the DRAM open rows and the
// prefetcher's streams. The op stream repeats every period, so if the
// state at the end of a cycle equals the state at its start, the next
// cycle sees the same ops from the same state and does exactly what the
// last one did, and so on. The one exception is the prefetcher's slot
// labels. They rotate as streams are allocated, so they are compared
// only up to a renaming: the recency-ordered expected lines must match,
// and a cycle's renaming perm maps each slot at one recency position to
// the slot at the same position a period later. Labels decide nothing
// unless two streams expect the same missing line (a tie, where the
// lower slot continues), so a cycle with no tie behaves the same under
// any renaming; it must also rename the same way again. A cycle is
// therefore skipped by adding its counter deltas and applying perm to
// the slots, which leaves every label where a full simulation puts it.
// The profile's floating-point sums are still added one op at a time in
// the original order, so their rounding matches too.
type steady struct {
	snapped             bool     // prev holds the state exactly one period ago
	prev, cur           []uint64 // label-free state a period ago and now
	prevSlots, curSlots []int    // prefetcher slot labels, most recent first, at the same points
	since               counters // counters a period ago
	cycle               counters // one repeating cycle's counter deltas
	perm                []int    // the slot renaming one cycle applies
}

// fastForward runs warmup and then window ops of g, whose stream
// repeats every period ops, adding the window's op costs to p. It
// returns the counters at the warmup boundary.
func (h *Hierarchy) fastForward(g Generator, period, warmup, window int, p *Profile) (atWarmup counters) {
	end := warmup + window
	h.steady.snapped = false
	found := false
	for t := 0; ; {
		if t == warmup {
			atWarmup = h.counters()
		}
		if t == end {
			return atWarmup
		}
		if t%period == 0 {
			if !found {
				// A snapshot is worth taking only if a whole cycle
				// could still be skipped after the next comparison.
				found = h.observe(t+2*period <= end)
			}
			if found {
				// Skip whole cycles up to the next boundary.
				stop := end
				if t < warmup {
					stop = warmup
				}
				if n := (stop - t) / period; n > 0 {
					h.skip(n)
					if t >= warmup {
						addCosts(g, p, n*period, period)
					}
					t += n * period
					continue
				}
			}
		}
		stop := min((t/period+1)*period, end)
		if t < warmup {
			stop = min(stop, warmup)
			h.run(g, stop-t, nil)
		} else {
			h.run(g, stop-t, p)
		}
		t = stop
	}
}

// observe runs at a multiple of the period. It compares the hierarchy
// with the snapshot taken one period earlier, if there is one, and
// reports whether the cycle between them repeats from here on. If not,
// it takes a new snapshot when keep is set.
func (h *Hierarchy) observe(keep bool) bool {
	s := &h.steady
	if !s.snapped && !keep {
		return false
	}
	s.cur = h.appendState(s.cur[:0])
	s.curSlots = h.Pref.AppendSlots(s.curSlots[:0])
	now := h.counters()
	if s.snapped {
		d := now.sub(s.since)
		if d.ties == 0 && slices.Equal(s.cur, s.prev) {
			s.cycle = d
			if len(s.perm) != len(s.curSlots) {
				s.perm = make([]int, len(s.curSlots))
			}
			for i, from := range s.prevSlots {
				s.perm[from] = s.curSlots[i]
			}
			return true
		}
	}
	s.snapped = keep
	if keep {
		s.prev, s.cur = s.cur, s.prev
		s.prevSlots, s.curSlots = s.curSlots, s.prevSlots
		s.since = now
	}
	return false
}

// appendState appends the hierarchy's state, without prefetcher slot
// labels, to dst.
func (h *Hierarchy) appendState(dst []uint64) []uint64 {
	dst = h.L1.AppendState(dst)
	dst = h.L2.AppendState(dst)
	dst = h.Mem.AppendState(dst)
	return h.Pref.AppendState(dst)
}

// skip accounts for n repetitions of the cycle observe found.
func (h *Hierarchy) skip(n int) {
	c := &h.steady.cycle
	k := uint64(n)
	h.L1.Skip(c.l1, k)
	h.L2.Skip(c.l2, k)
	h.Mem.Skip(c.mem, k)
	h.Pref.Skip(h.steady.perm, c.issued, n)
	h.memAccesses += c.memAccesses * k
	h.prefMem += c.prefMem * k
	for l := range h.served {
		h.served[l] += c.served[l] * k
	}
}

// addCosts adds the costs of the next n ops of g to p one op at a time,
// in stream order, so the sums round exactly as a full simulation's do.
// n is a multiple of period. If the first period's ops all cost the
// same, the rest are added as those constants without calling Next:
// the stream repeats, so they cost the same too.
func addCosts(g Generator, p *Profile, n, period int) {
	op := g.Next()
	instrs, cycles := op.Instrs, op.CoreCycles
	p.Instructions += instrs
	p.CoreCycles += cycles
	uniform := true
	k := 1
	for ; k < n && (k < period || !uniform); k++ {
		op := g.Next()
		uniform = uniform &&
			math.Float64bits(op.Instrs) == math.Float64bits(instrs) &&
			math.Float64bits(op.CoreCycles) == math.Float64bits(cycles)
		p.Instructions += op.Instrs
		p.CoreCycles += op.CoreCycles
	}
	for ; k < n; k++ {
		p.Instructions += instrs
		p.CoreCycles += cycles
	}
}
