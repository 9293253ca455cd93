package mloops

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"aapm/internal/kernel"
	"aapm/internal/phase"
	"aapm/internal/pstate"
)

func TestFootprints(t *testing.T) {
	fs := Footprints()
	if len(fs) != 3 {
		t.Fatalf("Footprints = %v", fs)
	}
	if FootprintL1.Bytes() != 16<<10 || FootprintL2.Bytes() != 256<<10 || FootprintMem.Bytes() != 8<<20 {
		t.Error("footprint sizes wrong")
	}
	if FootprintL1.String() != "16KB" || FootprintL2.String() != "256KB" || FootprintMem.String() != "8MB" {
		t.Error("footprint names wrong")
	}
	if Footprint(9).Bytes() != 0 {
		t.Error("unknown footprint bytes != 0")
	}
}

func TestLoopsAndDescriptions(t *testing.T) {
	ls := Loops()
	if len(ls) != 4 {
		t.Fatalf("Loops = %v", ls)
	}
	names := map[Loop]string{DAXPY: "DAXPY", FMA: "FMA", MCOPY: "MCOPY", MLOADRand: "MLOAD_RAND"}
	for l, n := range names {
		if l.String() != n {
			t.Errorf("%v name = %q", l, l.String())
		}
		if l.Description() == "" {
			t.Errorf("%v has no description", l)
		}
	}
}

func TestConfigsEnumerateTrainingSet(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 12 {
		t.Fatalf("Configs = %d entries, want 12 (4 loops x 3 footprints)", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.String()] {
			t.Errorf("duplicate config %s", c)
		}
		seen[c.String()] = true
	}
	if !seen["FMA-256KB"] {
		t.Error("missing the paper's worst-case FMA-256KB config")
	}
}

func TestGeneratorsProduceBoundedAddresses(t *testing.T) {
	for _, c := range Configs() {
		g := NewGenerator(c.Loop, c.Footprint)
		if !strings.Contains(g.Name(), c.Loop.String()) {
			t.Errorf("generator name %q missing loop name", g.Name())
		}
		for i := 0; i < 10000; i++ {
			op := g.Next()
			if op.Instrs <= 0 || op.CoreCycles <= 0 {
				t.Fatalf("%s: op with non-positive accounting %+v", c, op)
			}
			if len(op.Refs) == 0 {
				t.Fatalf("%s: op without references", c)
			}
		}
	}
}

// TestGeneratorPeriod checks the kernel.Periodic contract of every
// configuration: after Reset, ops [P, 2P) repeat ops [0, P) exactly —
// addresses, write flags and costs. Every sequential loop repeats once
// per pass over its footprint, every 16 bytes (DAXPY and MCOPY walk two
// arrays one element each per op, FMA one array two elements per op);
// MLOAD_RAND promises no period.
func TestGeneratorPeriod(t *testing.T) {
	for _, c := range Configs() {
		pg, ok := NewGenerator(c.Loop, c.Footprint).(kernel.Periodic)
		if !ok {
			t.Fatalf("%s: generator does not implement kernel.Periodic", c)
		}
		period := pg.Period()
		want := c.Footprint.Bytes() / 16
		if c.Loop == MLOADRand {
			want = 0
		}
		if period != want {
			t.Errorf("%s: Period() = %d, want %d", c, period, want)
		}
		if period == 0 {
			continue
		}
		first, second := NewGenerator(c.Loop, c.Footprint), NewGenerator(c.Loop, c.Footprint)
		first.Reset()
		second.Reset()
		for range period {
			second.Next()
		}
		for i := range period {
			a, b := first.Next(), second.Next()
			if !slices.Equal(a.Refs, b.Refs) || math.Float64bits(a.Instrs) != math.Float64bits(b.Instrs) ||
				math.Float64bits(a.CoreCycles) != math.Float64bits(b.CoreCycles) {
				t.Fatalf("%s: op %d is %+v, op %d is %+v", c, period+i, b, i, a)
			}
		}
	}
}

func TestCharacterizationShapes(t *testing.T) {
	set, err := TrainingSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 12 {
		t.Fatalf("training set has %d entries", len(set))
	}
	byName := map[string]int{}
	for i, p := range set {
		byName[p.Name] = i
	}
	ps2000 := pstate.PentiumM755().Max()

	// L1-resident configurations have no cache traffic.
	for _, n := range []string{"DAXPY-16KB", "FMA-16KB", "MCOPY-16KB", "MLOAD_RAND-16KB"} {
		p := set[byName[n]]
		if p.L2APKI > 1 || p.MemAPKI > 0.5 {
			t.Errorf("%s shows traffic: L2APKI=%g MemAPKI=%g", n, p.L2APKI, p.MemAPKI)
		}
	}
	// L2-resident FMA misses L1 but not DRAM.
	fma256 := set[byName["FMA-256KB"]]
	if fma256.L2APKI < 20 {
		t.Errorf("FMA-256KB L2APKI = %g, want substantial", fma256.L2APKI)
	}
	if fma256.MemBPI > 0.5 {
		t.Errorf("FMA-256KB DRAM traffic = %g B/instr, want ~0", fma256.MemBPI)
	}
	// FMA has the best core IPC of the suite (the paper's highest-power
	// loop) — its 16KB config must out-decode the others.
	var maxDPC float64
	var maxName string
	for _, p := range set {
		if d := p.At(ps2000).DPC; d > maxDPC {
			maxDPC, maxName = d, p.Name
		}
	}
	if !strings.HasPrefix(maxName, "FMA") {
		t.Errorf("highest DPC config = %s (%.2f), want an FMA config", maxName, maxDPC)
	}
	// 8MB streaming loops are DRAM-bandwidth-bound: far lower IPC than
	// their L2-resident configurations.
	for _, l := range []string{"DAXPY", "FMA", "MCOPY"} {
		small := set[byName[l+"-256KB"]].At(ps2000).IPC
		big := set[byName[l+"-8MB"]].At(ps2000).IPC
		if big > 0.5*small {
			t.Errorf("%s-8MB IPC %g not clearly below 256KB IPC %g", l, big, small)
		}
		if set[byName[l+"-8MB"]].MemBPI <= 0 {
			t.Errorf("%s-8MB shows no DRAM traffic", l)
		}
	}
	// MLOAD_RAND-8MB is the latency extreme: highest stall per
	// instruction in the whole training set.
	mlr := set[byName["MLOAD_RAND-8MB"]]
	for _, p := range set {
		if p.Name == mlr.Name {
			continue
		}
		if p.StallPerInst(ps2000) >= mlr.StallPerInst(ps2000) {
			t.Errorf("%s stall/inst %g >= MLOAD_RAND-8MB %g", p.Name, p.StallPerInst(ps2000), mlr.StallPerInst(ps2000))
		}
	}
}

func TestTrainingSetIsCached(t *testing.T) {
	a, err := TrainingSet()
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainingSet()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("TrainingSet re-characterized instead of caching")
	}
}

// paramsBits flattens every numeric field of p to its exact bits.
func paramsBits(p phase.Params) []uint64 {
	return []uint64{
		math.Float64bits(p.Instructions), uint64(p.IdleDuration),
		math.Float64bits(p.CPICore), math.Float64bits(p.L2APKI),
		math.Float64bits(p.MemAPKI), math.Float64bits(p.MemBPI),
		math.Float64bits(p.MLP), math.Float64bits(p.SpecFactor),
		math.Float64bits(p.StallFrac),
	}
}

// TestTrainingSetMatchesSerial checks that the parallel training set
// is bit-identical to characterizing Configs() one at a time, in order,
// at any GOMAXPROCS.
func TestTrainingSetMatchesSerial(t *testing.T) {
	cfgs := Configs()
	want := make([]phase.Params, len(cfgs))
	for i, c := range cfgs {
		p, err := Characterize(c, DefaultInstructions)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	check := func(t *testing.T, got []phase.Params) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d entries, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || !slices.Equal(paramsBits(got[i]), paramsBits(want[i])) {
				t.Errorf("entry %d: got %#v, want %#v", i, got[i], want[i])
			}
		}
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := characterizeAll(cfgs, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			check(t, got)
		})
	}
	t.Run("TrainingSet", func(t *testing.T) {
		got, err := TrainingSet()
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
}

// TestCharacterizeAllReportsLowestIndexError checks that of several
// failing configurations the one first in input order is reported, even
// when a later one is handed out first.
func TestCharacterizeAllReportsLowestIndexError(t *testing.T) {
	cfgs := []Config{
		{Loop: DAXPY, Footprint: FootprintL1},
		{Loop: Loop(9), Footprint: FootprintL1},
		{Loop: Loop(8), Footprint: FootprintMem}, // largest: runs first
	}
	got, err := characterizeAll(cfgs, 2)
	if err == nil || !strings.Contains(err.Error(), "loop(9)") {
		t.Fatalf("err = %v, want the loop(9) failure", err)
	}
	if got != nil {
		t.Errorf("got %d params alongside an error", len(got))
	}
}

// TestCharacterizeAllocs gates the characterization hot loop: every
// generator runs through kernel.Characterize without allocating, so no
// allocation grows with the window.
func TestCharacterizeAllocs(t *testing.T) {
	for _, c := range Configs() {
		h, err := kernel.NewPentiumMHierarchy()
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(c.Loop, c.Footprint)
		for _, window := range []int{1_000, 4_000} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := kernel.Characterize(g, h, window, window); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Characterize over a %d-op window allocates %.1f times, want 0", c, window, allocs)
			}
		}
	}
}

// nextOnly hides every optional method of a generator, so
// kernel.Characterize simulates every access, one Next call per op.
type nextOnly struct{ kernel.Generator }

// hierarchyBits flattens every counter and the labelled state of h.
func hierarchyBits(h *kernel.Hierarchy) []uint64 {
	l1, l2, mem := h.L1.Stats(), h.L2.Stats(), h.Mem.Stats()
	out := []uint64{
		l1.Accesses, l1.Hits, l1.Misses, l1.Evictions, l1.Writebacks,
		l2.Accesses, l2.Hits, l2.Misses, l2.Evictions, l2.Writebacks,
		mem.Accesses, mem.RowHits, mem.BytesXfr,
		h.Pref.Issued(), h.MemAccesses(), h.PrefetchMemAccesses(),
	}
	out = h.L1.AppendState(out)
	out = h.L2.AppendState(out)
	out = h.Mem.AppendState(out)
	out = h.Pref.AppendState(out)
	for _, s := range h.Pref.AppendSlots(nil) {
		out = append(out, uint64(s))
	}
	return out
}

// TestCharacterizeMatchesFullSimulation characterizes every
// configuration as Characterize does and with every optional generator
// method hidden, at the training window and at shapes that cut cycles
// anywhere: warmup 0, a window shorter than any period and lengths that
// are multiples of nothing. The Profile bits, every hierarchy counter
// and the labelled hierarchy state must agree.
func TestCharacterizeMatchesFullSimulation(t *testing.T) {
	shapes := []struct{ warmup, window int }{
		{warmupOps, windowOps}, {0, 100_000}, {30_000, 7}, {123_457, 300_001},
	}
	for _, c := range Configs() {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			for _, sh := range shapes {
				var profs [2]kernel.Profile
				var states [2][]uint64
				for k, hide := range []bool{false, true} {
					h, err := kernel.NewPentiumMHierarchy()
					if err != nil {
						t.Fatal(err)
					}
					g := NewGenerator(c.Loop, c.Footprint)
					if hide {
						g = nextOnly{g}
					}
					if profs[k], err = kernel.Characterize(g, h, sh.warmup, sh.window); err != nil {
						t.Fatal(err)
					}
					states[k] = hierarchyBits(h)
				}
				got, want := profs[0], profs[1]
				bits := math.Float64bits
				if got.ServedL1 != want.ServedL1 || got.ServedL2 != want.ServedL2 || got.ServedMem != want.ServedMem ||
					got.MemTraffic != want.MemTraffic || bits(got.Instructions) != bits(want.Instructions) ||
					bits(got.CoreCycles) != bits(want.CoreCycles) || bits(got.RowHitRate) != bits(want.RowHitRate) {
					t.Fatalf("warmup %d window %d: profile %+v, full simulation %+v", sh.warmup, sh.window, got, want)
				}
				if !slices.Equal(states[0], states[1]) {
					t.Fatalf("warmup %d window %d: hierarchy counters or state differ from a full simulation", sh.warmup, sh.window)
				}
			}
		})
	}
}

// TestNextBlockMatchesNext checks the kernel.BlockGenerator contract of
// every configuration: blocks of any size replay the stream of one-op
// Next calls.
func TestNextBlockMatchesNext(t *testing.T) {
	for _, c := range Configs() {
		ref, blk := NewGenerator(c.Loop, c.Footprint), NewGenerator(c.Loop, c.Footprint)
		bg := blk.(kernel.BlockGenerator)
		for i, max := 0, 1; i < 5_000; max = max%700 + 37 {
			b := bg.NextBlock(max)
			if b.Ops < 1 || b.Ops > max {
				t.Fatalf("%s: NextBlock(%d) returned %d ops", c, max, b.Ops)
			}
			per := len(b.Refs) / b.Ops
			for k := range b.Ops {
				op := ref.Next()
				if !slices.Equal(op.Refs, b.Refs[k*per:(k+1)*per]) || op.Instrs != b.Instrs || op.CoreCycles != b.CoreCycles {
					t.Fatalf("%s: op %d is %+v in a block, %+v from Next", c, i+k, b.Refs[k*per:(k+1)*per], op)
				}
			}
			i += b.Ops
		}
	}
}

// TestGeneratorBounds checks the kernel.Bounded contract of every
// configuration that has bounds, MLOAD_RAND's: every reference falls in
// them.
func TestGeneratorBounds(t *testing.T) {
	for _, c := range Configs() {
		g := NewGenerator(c.Loop, c.Footprint)
		lo, hi := g.(kernel.Bounded).Bounds()
		if lo >= hi {
			if c.Loop == MLOADRand {
				t.Fatalf("%s: no bounds", c)
			}
			continue
		}
		for i := 0; i < 2*c.Footprint.Bytes()/elemBytes; i++ {
			for _, r := range g.Next().Refs {
				if r.Addr < lo || r.Addr >= hi {
					t.Fatalf("%s: op %d references %#x outside [%#x, %#x)", c, i, r.Addr, lo, hi)
				}
			}
		}
	}
}

// simulated wraps a generator so it implements neither kernel.Periodic
// nor kernel.Bounded, which makes kernel.Characterize simulate every
// access; its blocks still reach Characterize, as the training set's
// do.
type simulated struct {
	kernel.Generator
	kernel.BlockGenerator
}

// BenchmarkCharacterizeSerial characterizes all 12 configurations one
// after another, each through a fresh hierarchy exactly as Characterize
// does, twice: once with every generator's period and bounds hidden, so
// every access is simulated, and once as Characterize runs them,
// replaying the repeating cycles of the periodic loops through the
// prefetcher alone and only counting the L1-resident accesses of
// MLOAD_RAND-16KB. Both passes read ops in blocks. ns/access is the
// full simulation's cost per simulated access; ff-ns/access divides the
// second pass's wall time by the same access count.
func BenchmarkCharacterizeSerial(b *testing.B) {
	var accesses uint64
	var full, ff time.Duration
	for n := 0; n < b.N; n++ {
		for _, hide := range []bool{true, false} {
			t := time.Now()
			for _, c := range Configs() {
				h, err := kernel.NewPentiumMHierarchy()
				if err != nil {
					b.Fatal(err)
				}
				g := NewGenerator(c.Loop, c.Footprint)
				if hide {
					g = simulated{g, g.(kernel.BlockGenerator)}
				}
				prof, err := kernel.Characterize(g, h, warmupOps, windowOps)
				if err != nil {
					b.Fatal(err)
				}
				if hide {
					// Every loop issues the same number of references
					// per operation, so the warmup's accesses scale
					// with the window's.
					accesses += prof.Accesses() * (warmupOps + windowOps) / windowOps
				}
			}
			if hide {
				full += time.Since(t)
			} else {
				ff += time.Since(t)
			}
		}
	}
	b.ReportMetric(float64(full.Nanoseconds())/float64(accesses), "ns/access")
	b.ReportMetric(float64(ff.Nanoseconds())/float64(accesses), "ff-ns/access")
}
