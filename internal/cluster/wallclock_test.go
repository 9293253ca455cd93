package cluster

import (
	"testing"
	"time"
)

func TestWallClock(t *testing.T) {
	var w WallClock
	if w.Avg() != 0 {
		t.Error("empty aggregate has nonzero average")
	}
	for _, d := range []time.Duration{3 * time.Microsecond, 9 * time.Microsecond, 6 * time.Microsecond} {
		w.Add(d)
	}
	if w.N != 3 || w.Total != 18*time.Microsecond {
		t.Errorf("N=%d Total=%v, want 3 and 18us", w.N, w.Total)
	}
	if w.Max != 9*time.Microsecond {
		t.Errorf("Max=%v, want 9us", w.Max)
	}
	if w.Min != 3*time.Microsecond {
		t.Errorf("Min=%v, want 3us", w.Min)
	}
	if w.Avg() != 6*time.Microsecond {
		t.Errorf("Avg=%v, want 6us", w.Avg())
	}
}

func wallOf(ds ...time.Duration) WallClock {
	var w WallClock
	for _, d := range ds {
		w.Add(d)
	}
	return w
}

func TestWallClockMergeIdentity(t *testing.T) {
	// Merging the zero value is the identity, both ways.
	w := wallOf(3*time.Microsecond, 9*time.Microsecond)
	before := w
	w.Merge(WallClock{})
	if w != before {
		t.Errorf("w.Merge(zero) changed w: %+v -> %+v", before, w)
	}
	var z WallClock
	z.Merge(before)
	if z != before {
		t.Errorf("zero.Merge(w) = %+v, want %+v", z, before)
	}
}

func TestWallClockMergeCommutative(t *testing.T) {
	a := wallOf(3*time.Microsecond, 9*time.Microsecond)
	b := wallOf(1*time.Microsecond, 20*time.Microsecond, 5*time.Microsecond)
	ab, ba := a, b
	ab.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Errorf("merge not commutative: a+b=%+v b+a=%+v", ab, ba)
	}
	if ab.N != 5 || ab.Total != 38*time.Microsecond {
		t.Errorf("merged N/Total = %d/%v", ab.N, ab.Total)
	}
	// The distribution tails survive the merge.
	if ab.Min != 1*time.Microsecond || ab.Max != 20*time.Microsecond {
		t.Errorf("merged Min/Max = %v/%v, want 1us/20us", ab.Min, ab.Max)
	}
	// Merging equals adding every sample to one aggregate.
	want := wallOf(3*time.Microsecond, 9*time.Microsecond, 1*time.Microsecond, 20*time.Microsecond, 5*time.Microsecond)
	if ab != want {
		t.Errorf("merge disagrees with sequential Add: %+v vs %+v", ab, want)
	}
}
