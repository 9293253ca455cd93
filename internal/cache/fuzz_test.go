package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// pair runs the MRU-ordered cache and prefetcher beside the
// timestamp-LRU reference and fails on the first observable
// difference.
type pair struct {
	t    *testing.T
	c    *Cache
	ref  *refCache
	p    *StreamPrefetcher
	refP *refStreamPrefetcher
	step int
}

func newPair(t *testing.T, cfg Config, nStreams, degree int) *pair {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	ref, err := newRefCache(cfg)
	if err != nil {
		t.Fatalf("newRefCache(%+v): %v", cfg, err)
	}
	return &pair{
		t: t, c: c, ref: ref,
		p:    newPrefetcher(t, cfg.LineBytes, nStreams, degree),
		refP: newRefStreamPrefetcher(cfg.LineBytes, nStreams, degree),
	}
}

// The operations pair.do applies, selected by op%numOps.
const (
	opRead = iota
	opWrite
	opFill
	opMiss
	numOps
)

func (p *pair) do(op int, addr uint64) {
	p.t.Helper()
	p.step++
	switch op % numOps {
	case opRead, opWrite:
		write := op%numOps == opWrite
		if got, want := p.c.Access(addr, write), p.ref.Access(addr, write); got != want {
			p.t.Fatalf("step %d: Access(%#x, %v) = %+v, reference %+v", p.step, addr, write, got, want)
		}
	case opFill:
		if got, want := p.c.Fill(addr), p.ref.Fill(addr); got != want {
			p.t.Fatalf("step %d: Fill(%#x) = %+v, reference %+v", p.step, addr, got, want)
		}
	case opMiss:
		if got, want := p.p.OnMiss(addr), p.refP.OnMiss(addr); !slices.Equal(got, want) {
			p.t.Fatalf("step %d: OnMiss(%#x) = %v, reference %v", p.step, addr, got, want)
		}
		if got, want := p.p.Issued(), p.refP.Issued(); got != want {
			p.t.Fatalf("step %d: Issued = %d, reference %d", p.step, got, want)
		}
	}
	if got, want := holds(p.c, addr), p.ref.Contains(addr); got != want {
		p.t.Fatalf("step %d: line %#x resident = %v, reference %v", p.step, addr, got, want)
	}
	if got, want := p.c.Stats(), p.ref.Stats(); got != want {
		p.t.Fatalf("step %d: Stats = %+v, reference %+v", p.step, got, want)
	}
}

// fuzzConfig derives a valid geometry from fuzz bytes: 1-16 ways,
// 4-256 byte lines, 1-64 sets.
func fuzzConfig(ways, lineLog, setLog uint8) Config {
	c := Config{Ways: 1 + int(ways%16), LineBytes: 4 << (lineLog % 7)}
	c.SizeBytes = (1 << (setLog % 7)) * c.Ways * c.LineBytes
	return c
}

// FuzzCacheMatchesReference drives the cache and the stream prefetcher
// beside verbatim copies of the timestamp-LRU implementation they
// replaced (reference_test.go) and requires identical Results, Stats,
// residency of the accessed line and prefetch lists at every step. Each 3-byte group
// of prog is one operation: byte 0 picks the operation (low bits) and
// the address's top four bits (high nibble), bytes 1-2 the low 16
// address bits, so accesses collide in small sets and tags span the
// full 64-bit address.
func FuzzCacheMatchesReference(f *testing.F) {
	seq := func(op byte, n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			a := uint16(i * 64)
			b = append(b, op, byte(a>>8), byte(a))
		}
		return b
	}
	f.Add(uint8(1), uint8(4), uint8(3), uint8(8), uint8(2), seq(opMiss, 40))
	f.Add(uint8(7), uint8(4), uint8(0), uint8(8), uint8(2), append(seq(opWrite, 20), seq(opRead, 20)...))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), []byte{opWrite, 0, 0, 0x10 | opRead, 0, 0, opFill, 0, 4, opFill, 0, 0})
	// Two streams expecting the same line (0 missed twice, with
	// another stream allocated in between): the miss at 64 must
	// continue the lower slot, or the stale duplicate ages past the
	// stream at 0x1000, is evicted in its place by the miss at 0x2000,
	// and the second miss at 64 prefetches nothing.
	f.Add(uint8(0), uint8(4), uint8(0), uint8(3), uint8(2), []byte{
		opMiss, 0, 0, opMiss, 0x10, 0, opMiss, 0, 0, opMiss, 0, 64, opMiss, 0x20, 0, opMiss, 0, 64})
	f.Fuzz(func(t *testing.T, ways, lineLog, setLog, nStreams, degree uint8, prog []byte) {
		cfg := fuzzConfig(ways, lineLog, setLog)
		p := newPair(t, cfg, int(nStreams%17), int(degree%5))
		for ; len(prog) >= 3; prog = prog[3:] {
			addr := uint64(prog[0]>>4)<<60 | uint64(prog[1])<<8 | uint64(prog[2])
			p.do(int(prog[0]&0x0f), addr)
		}
	})
}

// TestCacheMatchesReferenceLong runs long random operation streams —
// interleaved sequential streams plus random addresses in a footprint
// a few times the cache — through both implementations, so every set
// reaches steady-state eviction, including the Pentium M geometries.
func TestCacheMatchesReferenceLong(t *testing.T) {
	cfgs := []Config{PentiumML1D(), PentiumML2()}
	rng := rand.New(rand.NewSource(1))
	for _, ways := range []int{1, 2, 3, 8, 16} {
		cfgs = append(cfgs, Config{SizeBytes: 16 * ways * 64, Ways: ways, LineBytes: 64})
	}
	for _, cfg := range cfgs {
		p := newPair(t, cfg, 8, 2)
		footprint := uint64(3 * cfg.SizeBytes)
		var cursor [4]uint64
		for i := range cursor {
			cursor[i] = uint64(i) * footprint / 4
		}
		for i := 0; i < 200_000; i++ {
			var addr uint64
			if k := rng.Intn(8); k < len(cursor) {
				addr = cursor[k]
				cursor[k] = (cursor[k] + 8) % footprint
			} else {
				addr = uint64(rng.Int63n(int64(footprint)))
			}
			p.do(rng.Intn(numOps), addr)
		}
	}
}
