package machine

import (
	"math"
	"testing"
)

// FuzzCoastHorizon holds the coast horizon to the replay it bounds:
// for h = coastHorizon(rem, instr, most), the steady guard instr < rem
// holds before each of the first h ticks replayTicks applies to rem,
// and, unless most capped the count, fails after them. Seeds: exact
// multiples, where the last subtraction lands on instr itself and the
// guard then fails; integers next to 2^53 on both sides, where the
// subtraction rounds; each kind of most cap (none left, one, the count
// itself and one either side, the counter's width); non-integer
// inputs; and inputs the guard never or always admits.
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
		h := coastHorizon(rem, instr, int(most))
		l := replayLanes{rem: rem}
		for j := 0; j < h; j++ {
			if !(instr < l.rem) {
				t.Fatalf("coastHorizon(%v, %v, %d) = %d, but the guard fails before tick %d at rem %v", rem, instr, most, h, j, l.rem)
			}
			l = replayTicks(l, instr, 0, 0, 1)
		}
		if h < int(most) && instr < l.rem {
			t.Fatalf("coastHorizon(%v, %v, %d) = %d, but the guard still holds at rem %v", rem, instr, most, h, l.rem)
		}
	})
}
