package machine

import (
	"math"
	"testing"

	"aapm/internal/power"
)

// memoUnderTest is one memo's inputs as its key words, in key order,
// with the memo and its plain loop as functions of those words
// returning their results' bits.
type memoUnderTest struct {
	name      string
	words     []uint64
	set       func(w []uint64) int
	got, want func(w []uint64) []uint64
}

// check holds the memo to its loop: on the inputs twice (a miss, then a
// hit), then, for each key word, on the inputs with that word's sign
// flipped (-0 for +0) and with it changed, twice, so that the key lands
// on the inputs' set, each followed by the inputs again. A memo that
// confuses two keys of one set returns the other key's result, and the
// second change evicts the inputs' entry from its two-entry set.
func (c memoUnderTest) check(t *testing.T) {
	t.Helper()
	try := func(w []uint64, what string) {
		t.Helper()
		got, want := c.got(w), c.want(w)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s, %s: inputs %#x give %#x through the memo, %#x from the loop", c.name, what, w, got, want)
			}
		}
	}
	base := c.words
	try(base, "first lookup")
	try(base, "second lookup")
	for j := range base {
		v := append([]uint64(nil), base...)
		v[j] ^= 1 << 63
		try(v, "sign flipped")
		try(base, "after a sign flip")
		for x, found := uint64(1), 0; x < 1<<12 && found < 2; x++ {
			v[j] = base[j] ^ x
			if c.set(v) == c.set(base) {
				found++
				try(v, "set collision")
				try(base, "after a set collision")
			}
		}
	}
}

// FuzzRepeatMemos holds each repeat memo to its plain loop, bit for bit:
// the coast replay to replayTicks, the horizon to coastHorizon and the
// fold to foldSums, each on the fuzzed inputs and on inputs that differ
// from them in one key word, among them inputs whose key lands on the
// same set. Seeds include NaN, -0 and +0 inputs, integer and
// non-integer instruction counts, and loop lengths at the memo's
// threshold and one past it.
func FuzzRepeatMemos(f *testing.F) {
	b := math.Float64bits
	negZero := b(math.Copysign(0, -1))
	for _, s := range []struct {
		rem, instr, e1, e2, ei, j1, j2 uint64
		k                              uint16
	}{
		{b(2e9), b(3e9), b(41.5), b(40.25), b(2e7), b(0.14), b(0.13), 200},
		{b(1.98e9), 0, 0, 0, b(2e7 / 3.0), b(0.09), b(0.09), 246},
		{b(1e6), b(1e6), b(1), b(1), b(1e4), b(0.1), b(0.1), memoMin},
		{b(1e6), b(1e6), b(1), b(1), b(1e4), b(0.1), b(0.1), memoMin + 1},
		{b(math.NaN()), b(1), negZero, 0, b(math.NaN()), negZero, 0, 9},
		{negZero, negZero, negZero, negZero, b(1), 0, negZero, 7},
		{b(math.Inf(1)), b(5), b(3), b(4), b(2), b(math.Inf(-1)), b(1), 50},
		{b(7), b(5), b(3), b(4), b(2), b(1), b(1), 0},
	} {
		f.Add(s.rem, s.instr, s.e1, s.e2, s.ei, s.j1, s.j2, s.k)
	}
	f.Fuzz(func(t *testing.T, rem, instr, e1, e2, ei, j1, j2 uint64, k uint16) {
		fl := math.Float64frombits
		// Loop lengths stay below 2^11 however the checks vary them.
		n := uint64(k % 1024)
		var m memos
		lanes := func(w []uint64) replayLanes {
			var et, em power.Energy
			et, em = et.Plus(fl(w[2])), em.Plus(fl(w[3]))
			return replayLanes{fl(w[0]), fl(w[1]), et, em}
		}
		bitsOf := func(l replayLanes) []uint64 {
			return []uint64{b(l.rem), b(l.instr), b(l.et.Joules()), b(l.em.Joules())}
		}
		memoUnderTest{
			name:  "replay",
			words: []uint64{rem, instr, e1, e2, ei, j1, j2, n},
			set:   func(w []uint64) int { return replayKey(w).set() },
			got: func(w []uint64) []uint64 {
				return bitsOf(m.replay(lanes(w), fl(w[4]), fl(w[5]), fl(w[6]), int(w[7])))
			},
			want: func(w []uint64) []uint64 {
				return bitsOf(replayTicks(lanes(w), fl(w[4]), fl(w[5]), fl(w[6]), int(w[7])))
			},
		}.check(t)
		memoUnderTest{
			name:  "horizon",
			words: []uint64{rem, ei, n},
			set:   func(w []uint64) int { return horizonKey(w).set() },
			got: func(w []uint64) []uint64 {
				return []uint64{uint64(m.horizon(fl(w[0]), fl(w[1]), int(w[2])))}
			},
			want: func(w []uint64) []uint64 {
				return []uint64{uint64(coastHorizon(fl(w[0]), fl(w[1]), int(w[2])))}
			},
		}.check(t)
		memoUnderTest{
			name:  "fold",
			words: []uint64{e1, e2, j1, j2, n},
			set:   func(w []uint64) int { return foldKey(w).set() },
			got: func(w []uint64) []uint64 {
				sw, sd := m.fold(fl(w[0]), fl(w[1]), fl(w[2]), fl(w[3]), int(w[4]))
				return []uint64{b(sw), b(sd)}
			},
			want: func(w []uint64) []uint64 {
				sw, sd := foldSums(fl(w[0]), fl(w[1]), fl(w[2]), fl(w[3]), int(w[4]))
				return []uint64{b(sw), b(sd)}
			},
		}.check(t)
	})
}
