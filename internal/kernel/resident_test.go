package kernel

import "testing"

// lcgGen is a bounded generator with no period: each op issues refs
// references to elements of an array of elems 8-byte elements at base,
// picked by an LCG, writing the references whose position bit is set in
// writes. Its blocks hold up to 64 ops.
type lcgGen struct {
	base, elems uint64
	refs        int
	writes      uint8

	rng uint64
	buf []Ref
}

func (g *lcgGen) Name() string            { return "lcg" }
func (g *lcgGen) Reset()                  { g.rng = 1 }
func (g *lcgGen) Bounds() (lo, hi uint64) { return g.base, g.base + g.elems*8 }
func (g *lcgGen) Next() Op {
	b := g.NextBlock(1)
	return Op{Refs: b.Refs, Instrs: b.Instrs, CoreCycles: b.CoreCycles}
}
func (g *lcgGen) NextBlock(max int) Block {
	n := min(max, 64)
	g.buf = g.buf[:0]
	for range n {
		for k := range g.refs {
			g.rng = g.rng*6364136223846793005 + 1442695040888963407
			g.buf = append(g.buf, Ref{Addr: g.base + (g.rng>>33)%g.elems*8, Write: g.writes>>k&1 != 0})
		}
	}
	return Block{Refs: g.buf, Ops: n, Instrs: 4, CoreCycles: 2.4}
}

// boundedOnly exposes a generator's Next and Bounds but not its blocks,
// so Characterize reads it through its one-op adapter.
type boundedOnly struct {
	Generator
	Bounded
}

// checkResident characterizes g through a fresh hierarchy of geo twice,
// once with its bounds and blocks hidden, and fails unless the Profile,
// every counter and the labelled state come out equal. With blocks
// false the other run sees only Next and Bounds. It then has both
// hierarchies access evict new lines in every L1 set, which evicts each
// set's least recent lines and writes back the dirty ones, and then
// every line of g's array, requiring every served level to match. It
// reports whether the shortcut ran.
func checkResident(t *testing.T, geo geometry, g *lcgGen, blocks bool, warmup, window, evict int) bool {
	t.Helper()
	full, fast := geo.hierarchy(t), geo.hierarchy(t)
	want, err := Characterize(opaque{g}, full, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	var fg Generator = g
	if !blocks {
		fg = boundedOnly{g, g}
	}
	got, err := Characterize(fg, fast, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	compareProfiles(t, warmup, window, got, want)
	compareHierarchies(t, "after Characterize", fast, full)

	step := 0
	access := func(addr uint64, write bool) {
		step++
		if lf, lr := full.Access(addr, write), fast.Access(addr, write); lf != lr {
			t.Fatalf("follow-up access %d (%#x): shortcut hierarchy served %v, full simulation %v", step, addr, lr, lf)
		}
	}
	cfg := full.L1.Config()
	span := uint64(cfg.Sets() * cfg.LineBytes)
	for j := range evict {
		for s := range cfg.Sets() {
			access(1<<44+uint64(j)*span+uint64(s*cfg.LineBytes), false)
		}
	}
	lo, hi := g.Bounds()
	for a := lo &^ 63; a < hi; a += 64 {
		access(a, false)
	}
	compareHierarchies(t, "after the follow-up", fast, full)
	return fast.res.passes > 0
}

// TestCharacterizeResidentMatchesFull runs bounded generators through
// the L1-resident shortcut and a full simulation: footprints below and
// at L1 capacity take the shortcut, one line more or an unaligned base
// that spills into one more line do not.
func TestCharacterizeResidentMatchesFull(t *testing.T) {
	small := geometry{l1Ways: 2, l1Sets: 4, l2Sets: 16, streams: 8, degree: 2}
	const base = 1 << 32
	cases := []struct {
		name           string
		geo            geometry
		gen            lcgGen
		blocks         bool
		warmup, window int
		resident       bool
	}{
		{"half of L1", small, lcgGen{base: base, elems: 32, refs: 1}, true, 1_000, 5_000, true},
		{"half of L1, writes", small, lcgGen{base: base, elems: 32, refs: 3, writes: 5}, true, 333, 4_001, true},
		{"all of L1, Next only", small, lcgGen{base: base, elems: 64, refs: 2, writes: 2}, false, 2_000, 3_000, true},
		{"all of L1 in the window", small, lcgGen{base: base, elems: 64, refs: 1, writes: 1}, true, 0, 7_777, true},
		{"one line past L1", small, lcgGen{base: base, elems: 72, refs: 1, writes: 1}, true, 2_000, 2_000, false},
		{"unaligned past L1", small, lcgGen{base: base + 8, elems: 64, refs: 1}, true, 2_000, 2_000, false},
		// A 3-op window after a resident warmup leaves most lines of
		// every 4-way set untouched: their order must hold.
		{"few ops, 4 ways", geometry{l1Ways: 4, l1Sets: 2, l2Sets: 16, streams: 8, degree: 2}, lcgGen{base: base, elems: 64, refs: 1, writes: 1}, true, 2_000, 3, true},
		{"Pentium M, 16 KB", pentiumM, lcgGen{base: base + 24, elems: 2_000, refs: 1, writes: 1}, true, 50_000, 50_000, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.gen
			ways := max(1, c.geo.l1Ways)
			if got := checkResident(t, c.geo, &g, c.blocks, c.warmup, c.window, ways/2+1); got != c.resident {
				t.Errorf("shortcut ran = %v, want %v", got, c.resident)
			}
		})
	}
}

// FuzzCharacterizeResident is the fuzzing arm of
// TestCharacterizeResidentMatchesFull: small L1s, footprints from one
// element to twice L1's capacity at any 8-byte offset into a line, one
// to three references per op with any write mask, blocks or one-op
// Next calls, arbitrary warmups and windows, and a follow-up that
// evicts one to all ways of every set.
func FuzzCharacterizeResident(f *testing.F) {
	f.Add(uint8(0x15), uint16(63), uint8(0), uint8(0x05), uint16(500), uint16(3000))
	f.Add(uint8(0x15), uint16(64), uint8(1), uint8(0x9e), uint16(0), uint16(4000))
	f.Add(uint8(0x07), uint16(100), uint8(3), uint8(0x3a), uint16(77), uint16(999))
	f.Add(uint8(0x2c), uint16(200), uint8(0), uint8(0xff), uint16(4096), uint16(1))
	f.Add(uint8(0x07), uint16(63), uint8(0), uint8(0x45), uint16(2000), uint16(2))
	f.Fuzz(func(t *testing.T, geo uint8, elems uint16, off, shape uint8, warmup, window uint16) {
		gm := geometry{
			l1Ways:  1 + int(geo&3),
			l1Sets:  1 << (geo >> 2 & 3),
			l2Sets:  8 << (geo >> 4 & 3),
			streams: 4 + int(geo>>6),
			degree:  2,
		}
		capElems := gm.l1Ways * gm.l1Sets * 8
		g := &lcgGen{
			base:   1<<32 + uint64(off%8)*8,
			elems:  1 + uint64(int(elems)%(2*capElems)),
			refs:   1 + int(shape&3)%3,
			writes: shape >> 2 & 7,
		}
		evict := 1 + int(shape>>6)%gm.l1Ways
		checkResident(t, gm, g, shape&0x20 != 0, int(warmup%8192), 1+int(window%8192), evict)
	})
}
