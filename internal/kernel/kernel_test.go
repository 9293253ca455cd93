package kernel

import (
	"math"
	"testing"
)

// seqGen emits a fixed-stride sequential read stream.
type seqGen struct {
	i      uint64
	stride uint64
	n      uint64
}

func (g *seqGen) Name() string { return "seq" }
func (g *seqGen) Reset()       { g.i = 0 }
func (g *seqGen) Next() Op {
	addr := (g.i % g.n) * g.stride
	g.i++
	return Op{
		Refs:       []Ref{{Addr: addr}},
		Instrs:     4,
		CoreCycles: 2,
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "MEM" {
		t.Error("level names wrong")
	}
	if Level(9).String() != "level(9)" {
		t.Error("unknown level name wrong")
	}
}

func TestHierarchyServesRepeatedAccessFromL1(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Access(0x1000, false); lvl != LevelMem {
		t.Errorf("cold access served from %v, want MEM", lvl)
	}
	if lvl := h.Access(0x1000, false); lvl != LevelL1 {
		t.Errorf("warm access served from %v, want L1", lvl)
	}
}

func TestHierarchyL2ServesL1Victims(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// Touch enough distinct lines mapping to one L1 set to overflow its
	// 8 ways while staying inside L2. L1: 64 sets * 64 B lines -> lines
	// that alias in L1 are 4 KB apart.
	const stride = 4096
	for i := 0; i < 16; i++ {
		h.Access(uint64(i*stride), false)
	}
	// Line 0 has been evicted from L1 but must be in L2.
	if lvl := h.Access(0, false); lvl != LevelL2 {
		t.Errorf("L1 victim served from %v, want L2", lvl)
	}
}

func TestPrefetcherHidesSequentialStream(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// A long sequential line-granular stream: after the stream is
	// confirmed, demand misses should find their lines prefetched into
	// L2 rather than going to DRAM.
	memHits := 0
	for i := 0; i < 256; i++ {
		if h.Access(uint64(i*64), false) == LevelMem {
			memHits++
		}
	}
	if memHits > 8 {
		t.Errorf("sequential stream hit DRAM %d times, want <= 8 (prefetch coverage)", memHits)
	}
	if h.PrefetchMemAccesses() == 0 {
		t.Error("prefetcher issued no DRAM fills")
	}
}

func TestCharacterizeProfile(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	g := &seqGen{stride: 64, n: 64} // 4 KB loop: L1 resident after warmup
	prof, err := Characterize(g, h, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Instructions != 4000 || prof.CoreCycles != 2000 {
		t.Errorf("instr=%g cycles=%g, want 4000/2000", prof.Instructions, prof.CoreCycles)
	}
	if got := prof.CPICore(); got != 0.5 {
		t.Errorf("CPICore = %g, want 0.5", got)
	}
	if prof.ServedL1 != prof.Accesses() {
		t.Errorf("L1-resident loop missed: %+v", prof)
	}
	if prof.L2APKI() != 0 || prof.MemAPKI() != 0 {
		t.Errorf("L1-resident loop shows traffic: L2APKI=%g MemAPKI=%g", prof.L2APKI(), prof.MemAPKI())
	}
}

func TestCharacterizeErrors(t *testing.T) {
	g := &seqGen{stride: 64, n: 64}
	if _, err := Characterize(g, nil, 0, 10); err == nil {
		t.Error("nil hierarchy accepted")
	}
	h, _ := NewPentiumMHierarchy()
	if _, err := Characterize(g, h, 0, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := Characterize(g, h, -1, 10); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestEmptyProfileRates(t *testing.T) {
	var p Profile
	if p.CPICore() != 0 || p.L2APKI() != 0 || p.MemAPKI() != 0 {
		t.Error("empty profile rates nonzero")
	}
}

func TestWritebackReachesDRAM(t *testing.T) {
	h, err := NewPentiumMHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a large region exceeding L2 (2 MB), then stream past it so
	// dirty L2 victims are written back to DRAM.
	const lines = (4 << 20) / 64
	for i := 0; i < lines; i++ {
		h.Access(uint64(i*64), true)
	}
	if h.MemAccesses() <= lines/2 {
		t.Errorf("expected demand+writeback DRAM traffic, got %d accesses", h.MemAccesses())
	}
	if h.Mem.Stats().BytesXfr == 0 {
		t.Error("no DRAM bytes transferred")
	}
}

// FuzzAddRepeated holds addRepeated to the loop it replaces, bit for
// bit: n additions s += c one at a time.
func FuzzAddRepeated(f *testing.F) {
	const half = 0x1p-53 // half an ulp of 1
	for _, seed := range []struct {
		s, c float64
		n    uint32
	}{
		{0, 6, 1_000_000},
		{1, half, 100},                // a tie that rounds down to the even 1
		{1 + 2*half, half, 100},       // a tie that rounds up to the even neighbour
		{1, 3 * half, 1_000},          // ties at 1.5 ulp, then none past 2
		{1, half / 2, 1_000},          // below half an ulp: nothing moves
		{1, 0.1, 100_000},             // binade crossings
		{0x1p-1074, 0x1p-1074, 1_000}, // subnormal cost
		{0x1p-1060, 0x1p-1022, 1_000}, // subnormal sum
		{-100, 3, 1_000},              // negative sum
		{0, 2.2, 524_288},             // a replayed 8 MB cycle
		{1e300, 1e300, 100},           // overflow
		{1, 1e20, 100},                // every addition leaves the binade
		// The MS-Loops costs.
		{6, 5, 999_999}, {0, 3, 1_000_000}, {0, 4, 1_000_000},
		{0, 1.6, 1_000_000}, {0, 2.4, 1_000_000}, {1234.5, 2.2, 40},
	} {
		f.Add(seed.s, seed.c, seed.n)
	}
	f.Fuzz(func(t *testing.T, s, c float64, n uint32) {
		n %= 1_000_001
		want := s
		for range n {
			want += c
		}
		got := addRepeated(s, c, int(n))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("addRepeated(%v, %v, %d) = %v, adding one at a time gives %v", s, c, n, got, want)
		}
	})
}
