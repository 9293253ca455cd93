package machine

import (
	"math"
	"math/bits"

	"aapm/internal/power"
)

// The repeat memos. Three loops of a coasting fleet repeat bit for
// bit: the replay of a coast's deferred ticks (settledTicks), the walk
// to a coast's horizon (coastHorizon) and a coordinator's fold of a
// coast's intervals into its epoch sums (Stepper.Fold). Each is a pure
// function of the bits of its inputs, and in a noiseless fleet the
// nodes of one workload shape reach the same inputs on the same tick:
// they start alike, step alike and get the same limits. So each loop
// sits behind a small table, keyed on the bits of every input. A hit
// compares every key word and copies the stored result; a miss runs
// the loop and stores its result, evicting the older of the two
// entries of its key's set. Either way the caller gets the loop's
// bits.
//
// A table is two-way set-associative: a fleet's nodes of two workload
// shapes alternate in index order, and when their keys hash alike, a
// table of one entry per hash would evict each with the other on
// every lookup. Sixteen sets of two entries take about 6 KB per
// Stepper for the three tables.
//
// A Stepper owns its tables (in its tickRec), so concurrent steppers
// share nothing. Each table is allocated on its first lookup, so a
// batch that never coasts, such as every Session, pays nothing. A loop
// of memoMin iterations or fewer runs without its table: the lookup
// would cost what the loop does. Every key holds its loop's length,
// which is above memoMin whenever a table is consulted, so an entry
// never written (all key words zero) matches no lookup.

const (
	// memoBits is log2 of a table's set count.
	memoBits = 4
	// memoMin is the longest loop that runs without its table.
	memoMin = 4
)

// memoKey is a memo's key: the bits of every input of its loop, which
// == compares word by word.
type memoKey interface {
	comparable
	set() int
}

// memo is one table of a loop's results, with counts of its lookups
// and hits. A key's set is sets[key.set()]; its newer entry comes
// first.
type memo[K memoKey, V any] struct {
	sets          *[1 << memoBits][2]memoEntry[K, V]
	lookups, hits int64
}

// memoEntry is one entry: the key of the result it holds.
type memoEntry[K memoKey, V any] struct {
	key K
	val V
}

// entry returns the entry that holds k's result and true, or, on a
// miss, the entry to store it in and false: the caller computes the
// result and stores it there, with k.
func (m *memo[K, V]) entry(k K) (*memoEntry[K, V], bool) {
	if m.sets == nil {
		m.sets = new([1 << memoBits][2]memoEntry[K, V])
	}
	s := &m.sets[k.set()]
	m.lookups++
	for w := range s {
		if s[w].key == k {
			m.hits++
			return &s[w], true
		}
	}
	s[1] = s[0]
	return &s[0], false
}

// setOf hashes key words to a set. The words' products are
// independent, so they overlap in the pipeline instead of chaining.
func setOf(ws ...uint64) int {
	h := uint64(0)
	for i, w := range ws {
		h ^= bits.RotateLeft64(w*0x9e3779b97f4a7c15, 11*i)
	}
	return int((h ^ h>>29) * 0xbf58476d1ce4e5b9 >> (64 - memoBits))
}

// memos are one stepping goroutine's tables.
type memos struct {
	replays  memo[replayKey, replayLanes]
	horizons memo[horizonKey, int]
	folds    memo[foldKey, [2]float64]
}

// MemoCount counts one memo's lookups and hits.
type MemoCount struct{ Lookups, Hits int64 }

// MemoStats counts a Stepper's memo lookups and hits, per loop.
type MemoStats struct{ Replay, Horizon, Fold MemoCount }

// MemoStats returns the stepper's memo counts.
func (s *Stepper) MemoStats() MemoStats {
	m := &s.rec.memos
	return MemoStats{
		Replay:  MemoCount{m.replays.lookups, m.replays.hits},
		Horizon: MemoCount{m.horizons.lookups, m.horizons.hits},
		Fold:    MemoCount{m.folds.lookups, m.folds.hits},
	}
}

// replayLanes are the float lanes a coast replay adds to.
type replayLanes struct {
	rem, instr float64
	et, em     power.Energy
}

// replayKey holds the bits of a replay's inputs: the lanes, the
// interval's instructions and the two energy terms, and the tick count.
type replayKey [8]uint64

func (k replayKey) set() int { return setOf(k[:]...) }

// replayTicks adds k ticks' terms to the lanes, each lane in tick order:
// ei instructions retired from rem and into instr, the true and the
// measured energy terms jt and jm.
func replayTicks(l replayLanes, ei, jt, jm float64, k int) replayLanes {
	rem, instr, et, em := l.rem, l.instr, l.et, l.em
	for j := 0; j < k; j++ {
		rem -= ei
		instr += ei
		et = et.Plus(jt)
		em = em.Plus(jm)
	}
	return replayLanes{rem, instr, et, em}
}

// replay is replayTicks through the table when k exceeds memoMin.
func (m *memos) replay(l replayLanes, ei, jt, jm float64, k int) replayLanes {
	if k <= memoMin {
		return replayTicks(l, ei, jt, jm, k)
	}
	b := math.Float64bits
	key := replayKey{b(l.rem), b(l.instr), b(l.et.Joules()), b(l.em.Joules()), b(ei), b(jt), b(jm), uint64(k)}
	e, hit := m.replays.entry(key)
	if !hit {
		e.key, e.val = key, replayTicks(l, ei, jt, jm, k)
	}
	return e.val
}

// horizonKey holds the bits of a horizon walk's inputs.
type horizonKey [3]uint64

func (k horizonKey) set() int { return setOf(k[:]...) }

// horizon is coastHorizon through the table when most exceeds memoMin.
func (m *memos) horizon(rem, instr float64, most int) int {
	if most <= memoMin {
		return coastHorizon(rem, instr, most)
	}
	key := horizonKey{math.Float64bits(rem), math.Float64bits(instr), uint64(most)}
	e, hit := m.horizons.entry(key)
	if !hit {
		e.key, e.val = key, coastHorizon(rem, instr, most)
	}
	return e.val
}

// foldKey holds the bits of a fold's inputs: the two sums, the reading
// and the interval count.
type foldKey [5]uint64

func (k foldKey) set() int { return setOf(k[:]...) }

// foldSums adds w to sumW and dpc to sumDPC d times each, in order.
func foldSums(sumW, sumDPC, w, dpc float64, d int) (float64, float64) {
	for j := 0; j < d; j++ {
		sumW += w
		sumDPC += dpc
	}
	return sumW, sumDPC
}

// fold is foldSums through the table when d exceeds memoMin.
func (m *memos) fold(sumW, sumDPC, w, dpc float64, d int) (float64, float64) {
	if d <= memoMin {
		return foldSums(sumW, sumDPC, w, dpc, d)
	}
	b := math.Float64bits
	key := foldKey{b(sumW), b(sumDPC), b(w), b(dpc), uint64(d)}
	e, hit := m.folds.entry(key)
	if !hit {
		e.key = key
		e.val[0], e.val[1] = foldSums(sumW, sumDPC, w, dpc, d)
	}
	return e.val[0], e.val[1]
}
