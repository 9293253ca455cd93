package mloops

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

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

func TestWorkloadIsRunnable(t *testing.T) {
	w, err := Workload(Config{Loop: FMA, Footprint: FootprintL2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "FMA-256KB" || len(w.Phases) != 1 {
		t.Errorf("workload = %+v", w)
	}
	if w.JitterPct != 0 {
		t.Error("microbenchmark has jitter; the paper's loops are stable")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
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
