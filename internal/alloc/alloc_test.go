package alloc

import (
	"math"
	"math/rand"
	"testing"
)

// waterfill runs a fresh Allocator's scalar-floor water-fill and copies
// the limits out of its scratch.
func waterfill(budget, floor float64, desires []float64) []float64 {
	var al Allocator
	return append([]float64(nil), al.waterfill(budget, floor, desires)...)
}

// Property: water-filling never over-commits the shared budget
// (whenever the floor is coverable), never starves a node below the
// floor, and never hands a node more than it asked for.
func TestPropertyWaterfillRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(12)
		floor := 1 + rng.Float64()*5
		// Budget always covers the floor (Run rejects the rest).
		budget := floor*float64(n) + rng.Float64()*100
		desires := make([]float64, n)
		for i := range desires {
			desires[i] = rng.Float64() * 30
		}
		limits := waterfill(budget, floor, desires)
		if len(limits) != n {
			t.Fatalf("trial %d: %d limits for %d nodes", trial, len(limits), n)
		}
		var sum float64
		for i, l := range limits {
			sum += l
			if l < floor-1e-9 {
				t.Fatalf("trial %d: node %d limit %.4f below floor %.4f", trial, i, l, floor)
			}
			want := desires[i]
			if want < floor {
				want = floor
			}
			if l > want+1e-9 {
				t.Fatalf("trial %d: node %d limit %.4f above clamped desire %.4f", trial, i, l, want)
			}
		}
		if sum > budget+1e-6 {
			t.Fatalf("trial %d: limits sum %.6f exceed budget %.6f (floor %.3f, n %d, desires %v)",
				trial, sum, budget, floor, n, desires)
		}
	}
}

// When the budget covers every desire, everyone gets exactly what they
// asked for (clamped to the floor).
func TestWaterfillSatisfiesAllWhenAmple(t *testing.T) {
	desires := []float64{5, 12, 8.5, 3}
	limits := waterfill(100, 4, desires)
	want := []float64{5, 12, 8.5, 4}
	for i := range want {
		if limits[i] != want[i] {
			t.Fatalf("limits = %v, want %v", limits, want)
		}
	}
}

// When everyone wants more than an even share, the level is exactly
// budget/n.
func TestWaterfillEvenSplitUnderUniformPressure(t *testing.T) {
	limits := waterfill(30, 4, []float64{20, 25, 30})
	for i, l := range limits {
		if diff := l - 10; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("node %d limit %.6f, want 10", i, l)
		}
	}
}

func TestWaterfillEmpty(t *testing.T) {
	if got := waterfill(10, 1, nil); len(got) != 0 {
		t.Fatalf("waterfill(nil) = %v", got)
	}
}

// TestWaterfillAtFleetScale pins the fleet-scale contract the
// hierarchy depends on: at 1e5 synthetic demands the scalar waterfill
// conserves the budget (Σ limits ≤ budget), respects the floor for
// every child, and grants nobody more than their clamped desire.
func TestWaterfillAtFleetScale(t *testing.T) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	desires := make([]float64, n)
	for i := range desires {
		desires[i] = rng.Float64() * 25
	}
	const floor = 4.0
	budget := floor*n + 150_000.0 // tight: well under the ~1.25e6 W total ask
	limits := waterfill(budget, floor, desires)
	var sum float64
	for i, l := range limits {
		sum += l
		if l < floor {
			t.Fatalf("node %d limit %.6f below floor", i, l)
		}
		want := math.Max(desires[i], floor)
		if l > want+1e-9 {
			t.Fatalf("node %d limit %.6f above clamped desire %.6f", i, l, want)
		}
	}
	// The sum tolerance scales with n: each grant contributes one
	// rounding error against the analytically spent budget.
	if sum > budget+1e-6*n {
		t.Fatalf("limits sum %.3f exceeds budget %.3f", sum, budget)
	}
}

// TestPropertyWaterfillMonotoneInDesire pins monotonicity: raising one
// child's desire (budget fixed) never lowers that child's grant and
// never raises any other child's grant.
func TestPropertyWaterfillMonotoneInDesire(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		floor := 1 + rng.Float64()*4
		budget := floor*float64(n) + rng.Float64()*60
		desires := make([]float64, n)
		for i := range desires {
			desires[i] = rng.Float64() * 25
		}
		base := waterfill(budget, floor, desires)
		j := rng.Intn(n)
		bumped := make([]float64, n)
		copy(bumped, desires)
		bumped[j] += rng.Float64() * 10
		next := waterfill(budget, floor, bumped)
		if next[j] < base[j]-1e-9 {
			t.Fatalf("trial %d: raising node %d's desire lowered its grant %.6f -> %.6f",
				trial, j, base[j], next[j])
		}
		for i := range base {
			if i == j {
				continue
			}
			if next[i] > base[i]+1e-9 {
				t.Fatalf("trial %d: raising node %d's desire raised node %d's grant %.6f -> %.6f",
					trial, j, i, base[i], next[i])
			}
		}
	}
}

// TestPropertyWaterfillMinsConserves pins the heterogeneous-floor
// generalization used at interior hierarchy levels: budget
// conservation whenever the minimums fit, per-child minimum respect,
// and grants bounded by the clamped desires — at group counts from
// tiny to 1e5.
func TestPropertyWaterfillMinsConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var al Allocator
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		if trial == 0 {
			n = 100_000 // one fleet-scale pass
		}
		mins := make([]float64, n)
		desires := make([]float64, n)
		var sumMin float64
		for i := range mins {
			mins[i] = rng.Float64() * 20
			sumMin += mins[i]
			desires[i] = rng.Float64() * 60
		}
		budget := sumMin + rng.Float64()*float64(n)*10
		limits := al.waterfillMins(budget, mins, desires)
		var sum float64
		for i, l := range limits {
			sum += l
			if l < mins[i]-1e-9 {
				t.Fatalf("trial %d: child %d granted %.6f below its %.6f minimum", trial, i, l, mins[i])
			}
			want := math.Max(desires[i], mins[i])
			if l > want+1e-9 {
				t.Fatalf("trial %d: child %d granted %.6f above clamped desire %.6f", trial, i, l, want)
			}
		}
		if sum > budget+1e-6*float64(n) {
			t.Fatalf("trial %d: grants sum %.6f exceed budget %.6f (n=%d)", trial, sum, budget, n)
		}
	}
}

// TestWaterfillMinsSatisfiesAllWhenAmple mirrors the scalar ample-budget
// case with per-child minimums.
func TestWaterfillMinsSatisfiesAllWhenAmple(t *testing.T) {
	var al Allocator
	limits := al.waterfillMins(1000, []float64{4, 10, 2}, []float64{5, 8, 30})
	want := []float64{5, 10, 30}
	for i := range want {
		if limits[i] != want[i] {
			t.Fatalf("limits = %v, want %v", limits, want)
		}
	}
}

// agg is a plain-value Aggregate for allocator tests.
type agg struct {
	active  bool
	stale   bool
	heldW   float64
	desireW float64 // NaN = no signal
	recentW float64
	minW    float64 // 0 = scalar floor
}

func (a *agg) Active() bool          { return a.active }
func (a *agg) Stale() bool           { return a.stale }
func (a *agg) HeldW() float64        { return a.heldW }
func (a *agg) DesireW() float64      { return a.desireW }
func (a *agg) RecentPowerW() float64 { return a.recentW }
func (a *agg) RecentDPC() float64    { return 0 }
func (a *agg) MinW(floorW float64) float64 {
	if a.minW > 0 {
		return a.minW
	}
	return floorW
}

func children(aggs []agg) []Aggregate {
	out := make([]Aggregate, len(aggs))
	for i := range aggs {
		out[i] = &aggs[i]
	}
	return out
}

// TestAllocateHoldsAndReleases pins the demand/hold policy at the
// Allocator level: stale children's held share comes off the top and
// they get no apply call, inactive children get no apply call, and the
// fresh child is granted at most the unheld budget.
func TestAllocateHoldsAndReleases(t *testing.T) {
	aggs := []agg{
		{active: true, desireW: 40, recentW: 0},
		{active: true, stale: true, heldW: 12},
		{active: false},
	}
	var al Allocator
	al.MarginW = DefaultMarginW
	got := map[int]float64{}
	al.Allocate(30, 4, children(aggs), func(i int, w float64) { got[i] = w })
	if _, ok := got[1]; ok {
		t.Fatal("stale child received an apply call")
	}
	if _, ok := got[2]; ok {
		t.Fatal("inactive child received an apply call")
	}
	w, ok := got[0]
	if !ok {
		t.Fatal("fresh child received no grant")
	}
	if w > 18+1e-9 {
		t.Fatalf("fresh child granted %.4f W, exceeding the 18 W left after the hold", w)
	}
}

// TestAllocateRecentPowerFloorsDesire pins that a child's measured
// draw lower-bounds its effective desire.
func TestAllocateRecentPowerFloorsDesire(t *testing.T) {
	aggs := []agg{{active: true, desireW: 10, recentW: 17}}
	var al Allocator
	al.MarginW = DefaultMarginW
	var gotDesire, gotLimit float64
	al.OnDecision = func(child int, desireW, limitW float64) { gotDesire, gotLimit = desireW, limitW }
	al.Allocate(40, 4, children(aggs), func(i int, w float64) {})
	if gotDesire != 17 {
		t.Fatalf("desire %.4f, want the 17 W recent draw to floor it", gotDesire)
	}
	if gotLimit != 17 {
		t.Fatalf("limit %.4f, want 17 under an ample budget", gotLimit)
	}
}

// TestAllocateNoSignalFallsBackToMin pins the no-signal fallback: a
// fresh child with NaN desire asks for exactly its minimum.
func TestAllocateNoSignalFallsBackToMin(t *testing.T) {
	aggs := []agg{
		{active: true, desireW: math.NaN()},
		{active: true, desireW: 50},
	}
	var al Allocator
	got := map[int]float64{}
	al.Allocate(30, 4, children(aggs), func(i int, w float64) { got[i] = w })
	if got[0] != 4 {
		t.Fatalf("no-signal child granted %.4f, want the 4 W floor", got[0])
	}
	if got[1] <= got[0] {
		t.Fatalf("hungry child granted %.4f, not above the idle one", got[1])
	}
}

// TestEffectiveDesireMatchesAllocate pins that the aggregation helper
// interior levels use reports exactly what Allocate grants under an
// ample budget.
func TestEffectiveDesireMatchesAllocate(t *testing.T) {
	aggs := []agg{
		{active: true, desireW: 12, recentW: 3},
		{active: true, desireW: math.NaN()},
		{active: true, stale: true, heldW: 9},
		{active: true, desireW: 2, recentW: 8, minW: 6},
	}
	var al Allocator
	al.MarginW = DefaultMarginW
	got := map[int]float64{}
	al.Allocate(1e6, 4, children(aggs), func(i int, w float64) { got[i] = w })
	for i := range aggs {
		want := al.EffectiveDesireW(&aggs[i], 4)
		if aggs[i].stale {
			if want != aggs[i].heldW {
				t.Fatalf("child %d: stale effective desire %.4f != held %.4f", i, want, aggs[i].heldW)
			}
			continue
		}
		if got[i] != want {
			t.Fatalf("child %d: granted %.6f under ample budget, EffectiveDesireW %.6f", i, got[i], want)
		}
	}
}

// TestAllocatorScratchReuse pins that repeated epochs on one Allocator
// produce identical results to fresh Allocators (scratch reuse is
// value-invisible).
func TestAllocatorScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var reused Allocator
	reused.MarginW = DefaultMarginW
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		aggs := make([]agg, n)
		for i := range aggs {
			aggs[i] = agg{
				active:  rng.Intn(10) > 0,
				stale:   rng.Intn(10) == 0,
				heldW:   rng.Float64() * 10,
				desireW: rng.Float64() * 40,
				recentW: rng.Float64() * 20,
			}
			if rng.Intn(4) == 0 {
				aggs[i].desireW = math.NaN()
			}
			if rng.Intn(3) == 0 {
				aggs[i].minW = 4 + rng.Float64()*10
			}
		}
		budget := 40 + rng.Float64()*400
		a := map[int]float64{}
		b := map[int]float64{}
		reused.Allocate(budget, 4, children(aggs), func(i int, w float64) { a[i] = w })
		fresh := Allocator{MarginW: DefaultMarginW}
		fresh.Allocate(budget, 4, children(aggs), func(i int, w float64) { b[i] = w })
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d grants", trial, len(a), len(b))
		}
		for i, w := range a {
			if b[i] != w {
				t.Fatalf("trial %d child %d: reused %.9f != fresh %.9f", trial, i, w, b[i])
			}
		}
	}
}

// FuzzWaterfill fuzzes both waterfills with adversarial budgets and
// desire patterns, checking the conservation and bound invariants.
func FuzzWaterfill(f *testing.F) {
	f.Add(int64(1), 10, 56.0, 4.0)
	f.Add(int64(9), 3, 12.0, 0.5)
	f.Add(int64(42), 1, 1e9, 1e-3)
	f.Fuzz(func(t *testing.T, seed int64, n int, budget, floor float64) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		if !(floor > 0) || !(budget > 0) || math.IsInf(budget, 0) || math.IsInf(floor, 0) {
			t.Skip()
		}
		if floor*float64(n) > budget {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		desires := make([]float64, n)
		mins := make([]float64, n)
		var sumMin float64
		for i := range desires {
			desires[i] = rng.Float64() * budget
			mins[i] = rng.Float64() * floor
			sumMin += mins[i]
		}
		limits := waterfill(budget, floor, desires)
		var sum float64
		for i, l := range limits {
			sum += l
			if l < floor {
				t.Fatalf("scalar: child %d below floor: %g < %g", i, l, floor)
			}
			if want := math.Max(desires[i], floor); l > want*(1+1e-12)+1e-9 {
				t.Fatalf("scalar: child %d above clamped desire: %g > %g", i, l, want)
			}
		}
		if sum > budget*(1+1e-9)+1e-6*float64(n) {
			t.Fatalf("scalar: sum %g exceeds budget %g", sum, budget)
		}
		if sumMin <= budget {
			var al Allocator
			lims := al.waterfillMins(budget, mins, desires)
			sum = 0
			for i, l := range lims {
				sum += l
				if l < mins[i]*(1-1e-12)-1e-9 {
					t.Fatalf("mins: child %d below min: %g < %g", i, l, mins[i])
				}
				if want := math.Max(desires[i], mins[i]); l > want*(1+1e-12)+1e-9 {
					t.Fatalf("mins: child %d above clamped desire: %g > %g", i, l, want)
				}
			}
			if sum > budget*(1+1e-9)+1e-6*float64(n) {
				t.Fatalf("mins: sum %g exceeds budget %g", sum, budget)
			}
		}
	})
}
