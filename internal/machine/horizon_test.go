package machine

import (
	"math"
	"testing"
)

// walkHorizon is the horizon as the replay reaches it: rem -= instr,
// rounded, while the steady guard instr < rem holds, at most most
// times.
func walkHorizon(rem, instr float64, most int) int {
	h := 0
	for ; h < most && instr < rem; h++ {
		rem -= instr
	}
	return h
}

// FuzzCoastHorizon holds coastHorizon to the walk, for every input: the
// counted horizon of integer inputs below 2^53 and the walk it falls
// back to for any other. Seeds: exact multiples, where the last
// subtraction lands on instr itself and the guard then fails; integers
// next to 2^53 on both sides; each kind of most cap (none left, one,
// the count itself and one either side, the counter's width); and
// non-integer inputs, which must take the walk.
func FuzzCoastHorizon(f *testing.F) {
	b := math.Float64bits
	const top = 1 << 53
	for _, c := range []struct {
		rem, instr float64
		most       uint16
	}{
		{3, 1, math.MaxUint16},
		{20 * 4e7, 4e7, math.MaxUint16},
		{20*4e7 + 1, 4e7, math.MaxUint16},
		{20*4e7 - 1, 4e7, math.MaxUint16},
		{4e7, 4e7, math.MaxUint16},
		{1, 1, math.MaxUint16},
		{1, 2, 1},
		{top - 1, 1, math.MaxUint16},
		{top - 1, top - 2, math.MaxUint16},
		{top - 2, (top - 2) / 2, math.MaxUint16},
		{top, 3, 40},
		{top + 2, 1, 7},
		{2e9, 1e7, 0},
		{2e9, 1e7, 1},
		{2e9, 1e7, 198},
		{2e9, 1e7, 199},
		{2e9, 1e7, 200},
		{1.98e9, 2e7 / 3.0, math.MaxUint16},
		{2e9 / 3.0, 2e7, math.MaxUint16},
		{0.5, 0.25, math.MaxUint16},
		{0, 1, math.MaxUint16},
		{-4, 1, math.MaxUint16},
		{math.Inf(1), 1, 9},
		{math.NaN(), 1, 9},
		{1e6, math.NaN(), 9},
		{1e6, 0, 9},
	} {
		f.Add(b(c.rem), b(c.instr), c.most)
	}
	f.Fuzz(func(t *testing.T, remBits, instrBits uint64, most uint16) {
		rem, instr := math.Float64frombits(remBits), math.Float64frombits(instrBits)
		if got, want := coastHorizon(rem, instr, int(most)), walkHorizon(rem, instr, int(most)); got != want {
			t.Fatalf("coastHorizon(%v, %v, %d) = %d, the walk gives %d", rem, instr, most, got, want)
		}
		if exactSteps(rem, instr) && (rem != math.Trunc(rem) || instr != math.Trunc(instr) || rem >= top || instr >= top) {
			t.Fatalf("(%v, %v): counted without walking, but not integers below 2^53", rem, instr)
		}
	})
}
