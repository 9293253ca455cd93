package intent

import (
	"strings"
	"testing"
)

// cap16 is the admission fixture: 16 nodes, 3 levels, fanout 4 →
// four level-1 groups of 4 nodes under one level-2 group. Node floor
// 4 W, ceiling 25 W, root budget 256 W.
func cap16() Capability {
	return Capability{Nodes: 16, Levels: 3, Fanout: 4, BudgetW: 256}.withDefaults()
}

func TestSpecIDContentAddressed(t *testing.T) {
	a := Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 40}
	b := Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 40}
	if a.ID() != b.ID() {
		t.Errorf("identical specs hash differently: %s vs %s", a.ID(), b.ID())
	}
	for _, other := range []Spec{
		{Kind: KindCap, Level: 1, Group: 1, Watts: 40},
		{Kind: KindCap, Level: 1, Group: 0, Watts: 41},
		{Kind: KindFloor, Level: 1, Group: 0, Watts: 40},
		{Kind: KindCap, Level: 2, Group: 0, Watts: 40},
		{Kind: KindCap, Level: 1, Group: 0, Watts: 40, DeadlineEpochs: 3},
	} {
		if other.ID() == a.ID() {
			t.Errorf("distinct spec %+v collides with %+v", other, a)
		}
	}
	if !strings.HasPrefix(a.ID(), "n") || len(a.ID()) != 17 {
		t.Errorf("ID format %q, want n + 16 hex digits", a.ID())
	}
}

func TestSpecValidation(t *testing.T) {
	shape := cap16().shape()
	cases := []struct {
		name string
		s    Spec
	}{
		{"unknown kind", Spec{Kind: "boost", Level: 1, Group: 0, Watts: 10}},
		{"cap without watts", Spec{Kind: KindCap, Level: 1, Group: 0}},
		{"cap with NaN-ish watts", Spec{Kind: KindCap, Level: 1, Group: 0, Watts: -5}},
		{"cap at leaf level", Spec{Kind: KindCap, Level: 0, Group: 0, Watts: 10}},
		{"cap above root", Spec{Kind: KindCap, Level: 3, Group: 0, Watts: 10}},
		{"group out of range", Spec{Kind: KindCap, Level: 1, Group: 4, Watts: 10}},
		{"negative group", Spec{Kind: KindDrain, Level: 1, Group: -1}},
		{"prefer without weight", Spec{Kind: KindPrefer, Level: 1, Group: 0}},
		{"prefer weight too large", Spec{Kind: KindPrefer, Level: 1, Group: 0, Weight: 100}},
		{"drain level out of range", Spec{Kind: KindDrain, Level: 5, Group: 0}},
		{"negative deadline", Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 10, DeadlineEpochs: -1}},
	}
	for _, tc := range cases {
		r := tc.s.validate(shape)
		if r == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if r.Code != ReasonBadSpec {
			t.Errorf("%s: code %s, want %s", tc.name, r.Code, ReasonBadSpec)
		}
	}
	good := []Spec{
		{Kind: KindCap, Level: 1, Group: 3, Watts: 40},
		{Kind: KindFloor, Level: 2, Group: 0, Watts: 100},
		{Kind: KindPrefer, Level: 1, Group: 0, Weight: 2},
		{Kind: KindDrain, Level: 0, Group: 15},
		{Kind: KindDrain, Level: 1, Group: 2},
	}
	for _, s := range good {
		if r := s.validate(shape); r != nil {
			t.Errorf("valid spec %+v rejected: %v", s, r)
		}
	}
}

// TestAdmissionFeasibility walks the feasibility sweep through the
// edge cases: nested cap conflicts, drains stranding floors, budget
// exhaustion, and the positive paths between them.
func TestAdmissionFeasibility(t *testing.T) {
	c := cap16()
	shape := c.shape()
	check := func(t *testing.T, admitted []Spec, cand Spec, wantCode string) {
		t.Helper()
		r := admit(c, shape, admitted, cand)
		switch {
		case wantCode == "" && r != nil:
			t.Errorf("want admitted, got %v", r)
		case wantCode != "" && r == nil:
			t.Errorf("want rejection %s, got admitted", wantCode)
		case wantCode != "" && r.Code != wantCode:
			t.Errorf("want rejection %s, got %s (%s)", wantCode, r.Code, r.Detail)
		}
	}

	t.Run("cap below the group floor", func(t *testing.T) {
		// Group minimum is 4 leaves x 4 W = 16 W.
		check(t, nil, Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 10}, ReasonCapBelowFloor)
		check(t, nil, Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 16}, "")
	})

	t.Run("nested caps conflict", func(t *testing.T) {
		// An inner cap is fine under an outer one, but an outer cap
		// below the level's summed floors (4 groups x 16 W) is not.
		inner := Spec{Kind: KindCap, Level: 1, Group: 0, Watts: 30}
		outer := Spec{Kind: KindCap, Level: 2, Group: 0, Watts: 100}
		check(t, []Spec{outer}, inner, "")
		check(t, []Spec{inner}, Spec{Kind: KindCap, Level: 2, Group: 0, Watts: 50}, ReasonCapBelowFloor)
	})

	t.Run("floor cannot fit under an ancestor cap", func(t *testing.T) {
		// Outer cap 100 W; three sibling minima of 16 W leave at most
		// 52 W of guaranteed room for a floor on group 1.
		outer := Spec{Kind: KindCap, Level: 2, Group: 0, Watts: 100}
		check(t, []Spec{outer}, Spec{Kind: KindFloor, Level: 1, Group: 1, Watts: 80}, ReasonFloorExceedsCap)
		check(t, []Spec{outer}, Spec{Kind: KindFloor, Level: 1, Group: 1, Watts: 50}, "")
		// Or past the subtree's achievable power (4 x 25 W).
		check(t, nil, Spec{Kind: KindFloor, Level: 1, Group: 1, Watts: 120}, ReasonFloorExceedsCap)
	})

	t.Run("floors exceed the root budget", func(t *testing.T) {
		f0 := Spec{Kind: KindFloor, Level: 1, Group: 0, Watts: 95}
		check(t, []Spec{f0}, Spec{Kind: KindFloor, Level: 1, Group: 1, Watts: 95}, "")
		// 95 + 95 + 95 + 16 = 301 > 256.
		f1 := Spec{Kind: KindFloor, Level: 1, Group: 1, Watts: 95}
		check(t, []Spec{f0, f1}, Spec{Kind: KindFloor, Level: 1, Group: 2, Watts: 95}, ReasonFloorsExceedBudget)
	})

	t.Run("drain strands a floor", func(t *testing.T) {
		floor := Spec{Kind: KindFloor, Level: 1, Group: 0, Watts: 40}
		check(t, []Spec{floor}, Spec{Kind: KindDrain, Level: 1, Group: 0}, ReasonDrainStrandsFloor)
		// Draining one leaf of the floored group leaves 3 x 25 W of
		// achievable power, plenty for the 40 W floor.
		check(t, []Spec{floor}, Spec{Kind: KindDrain, Level: 0, Group: 0}, "")
		// Draining an unfloored sibling is fine too.
		check(t, []Spec{floor}, Spec{Kind: KindDrain, Level: 1, Group: 2}, "")
	})

	t.Run("drain leaves no capacity", func(t *testing.T) {
		check(t, nil, Spec{Kind: KindDrain, Level: 2, Group: 0}, ReasonDrainNoCapacity)
		d0 := Spec{Kind: KindDrain, Level: 1, Group: 0}
		d1 := Spec{Kind: KindDrain, Level: 1, Group: 1}
		d2 := Spec{Kind: KindDrain, Level: 1, Group: 2}
		check(t, []Spec{d0, d1}, d2, "")
		check(t, []Spec{d0, d1, d2}, Spec{Kind: KindDrain, Level: 1, Group: 3}, ReasonDrainNoCapacity)
	})
}
