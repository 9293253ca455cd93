package machine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
)

// coastAct is a write to, or a read of, a coasting lane between
// rounds. It is applied once, to both twins, after the first round no
// earlier than after that ends with the as-built twin's lane in the
// middle of a coast (at least one tick deferred). A read returns text
// that must be the same for both twins.
type coastAct struct {
	name  string
	lane  int
	after int
	do    func(b *machine.BatchState, k int) string
	// ends is whether the lane's next tick must be a regular step,
	// not a coast tick.
	ends bool
}

// TestCoastMatchesGeneral steps totals-only batches twice: once as
// built, where settled lanes coast, and once with the steady table
// cleared, where no tick is steady, no lane settles and so none
// coasts. After every round every lane must agree bit for bit on what
// a caller can read mid-coast (decode rate, measured power, interval
// and tick counts, governor lane, done and error); at the end, and
// whenever an act reads them, the run totals must agree too. Coasts
// are cut by phase ends, by the tick bound, by a caller passing over
// the lane (Stepper.EndCoast), by limit writes through the batch and
// through a handle, by BypassHysteresis and by a
// Subscribe that puts the batch on the full event order; a limit write
// with the lane's own bits must not cut one. A lane behind a noisy
// chain must never coast; one behind a quantizing chain without noise
// must, on a reading that is not its true power, so the true and the
// measured energy replay different terms. The as-built twin must coast
// at least a set number of node-ticks.
func TestCoastMatchesGeneral(t *testing.T) {
	long := phase.Workload{
		Name:   "coast-long",
		Phases: []phase.Params{{Name: "cpu", Instructions: 9e9, CPICore: 1, MLP: 1, SpecFactor: 1.05}},
	}
	multi := phase.Workload{
		Name:       "coast-multi",
		Iterations: 2,
		Phases: []phase.Params{
			{Name: "cpu", Instructions: 5.2e9, CPICore: 0.7, L2APKI: 4, MemAPKI: 0.5, MemBPI: 0.3, MLP: 2, SpecFactor: 1.1, StallFrac: 0.05},
			{Name: "nap", IdleDuration: 25 * time.Millisecond},
			{Name: "mem", Instructions: 2.8e9, CPICore: 1.4, L2APKI: 45, MemAPKI: 22, MemBPI: 9, MLP: 3, SpecFactor: 1.2, StallFrac: 0.3},
			{Name: "mid", Instructions: 3.6e9, CPICore: 1.1, L2APKI: 20, MemAPKI: 6, MemBPI: 3, MLP: 2, SpecFactor: 1.1, StallFrac: 0.2},
		},
	}
	ideal := machine.Config{Seed: 21}
	bounded := machine.Config{Seed: 22, MaxTicks: 260}
	coarse := machine.Config{Seed: 23, Chain: sensor.Chain{NoiseStdW: 0.03, QuantStepW: 0.25}}
	quantized := machine.Config{Seed: 24, Chain: sensor.Chain{QuantStepW: 0.25}}

	pm := func(limitW, gain float64) func() (machine.Governor, error) {
		return func() (machine.Governor, error) {
			return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: gain})
		}
	}
	bare := func(limitW float64) func() (machine.LanePolicy, machine.GovLane, error) {
		return func() (machine.LanePolicy, machine.GovLane, error) {
			pol, err := control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.25})
			if err != nil {
				return nil, machine.GovLane{}, err
			}
			return pol, pol.Lane(limitW), nil
		}
	}
	lanes := []steadyLane{
		0: {cfg: ideal, w: long, gov: pm(14.5, 0.25)},
		1: {cfg: ideal, w: long, gov: pm(13, 1)},
		2: {cfg: ideal, w: multi, gov: pm(13.5, 0.25)},
		3: {cfg: bounded, w: long, gov: pm(13.5, 0.25)},
		4: {cfg: ideal, w: long, lane: bare(13.5)},
		5: {cfg: ideal, w: multi, lane: bare(12.5)},
		6: {cfg: coarse, w: long, gov: pm(13, 1)},
		7: {cfg: ideal, w: long},
		8: {cfg: quantized, w: multi, gov: pm(13.5, 0.25)},
	}
	const (
		multiLane  = 2 // coasts cut by phase ends
		boundLane  = 3 // a coast cut by the tick bound
		noisyLane  = 6 // never coasts
		pinnedLane = 7 // no governor: never settles
		quantLane  = 8 // coasts on a reading that is not its true power
	)
	write := func(f func(b *machine.BatchState, k int)) func(b *machine.BatchState, k int) string {
		return func(b *machine.BatchState, k int) string { f(b, k); return "" }
	}
	acts := []coastAct{
		{name: "batch SetLimit, same bits", lane: 4, after: 40, do: write(func(b *machine.BatchState, k int) {
			l, _ := machine.LaneOf(b, k)
			b.SetLimit(k, l.LimitW)
		})},
		{name: "Seq and Ticks read", lane: 0, after: 60, do: func(b *machine.BatchState, k int) string {
			return fmt.Sprintf("seq %d ticks %d", b.Seq(k), b.Ticks(k))
		}},
		{name: "Result read", lane: 0, after: 80, ends: true, do: func(b *machine.BatchState, k int) string {
			return runText(b.Result(k))
		}},
		{name: "Stepper EndCoast", lane: 0, after: 150, ends: true, do: func(b *machine.BatchState, k int) string {
			s := b.NewStepper()
			s.EndCoast(k)
			return fmt.Sprintf("seq %d ticks %d", b.Seq(k), b.Ticks(k))
		}},
		{name: "batch SetLimit down", lane: 4, after: 100, ends: true, do: write(func(b *machine.BatchState, k int) { b.SetLimit(k, 11.5) })},
		{name: "handle SetLimit up", lane: 1, after: 100, ends: true, do: write(func(b *machine.BatchState, k int) { handle(b, k).SetLimit(16) })},
		{name: "handle BypassHysteresis", lane: 1, after: 250, ends: true, do: write(func(b *machine.BatchState, k int) { handle(b, k).BypassHysteresis() })},
		{name: "batch SetLimit up", lane: 5, after: 120, ends: true, do: write(func(b *machine.BatchState, k int) { b.SetLimit(k, 15) })},
		{name: "Subscribe", lane: 5, after: 3000, ends: true, do: write(func(b *machine.BatchState, k int) {
			machine.Subscribe(b, k, machine.BaseHook{})
		})},
	}

	build := func() *machine.BatchState {
		nodes := make([]machine.BatchNode, len(lanes))
		calls := new(int)
		for k, l := range lanes {
			m, err := machine.New(l.cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[k] = machine.BatchNode{Machine: m, Workload: l.w, SeedOffset: int64(k)}
			if l.gov != nil {
				g, err := l.gov()
				if err != nil {
					t.Fatal(err)
				}
				pm := g.(*control.PerformanceMaximizer)
				nodes[k].Governor = &countedPM{PerformanceMaximizer: pm, pol: &countingPolicy{pm.Policy(), calls}}
			}
			if l.lane != nil {
				pol, lane, err := l.lane()
				if err != nil {
					t.Fatal(err)
				}
				nodes[k].Policy, nodes[k].Lane = pol, lane
			}
		}
		b, err := machine.NewBatch(nodes, machine.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	coasting, general := build(), build()
	if machine.ClearSteady(general) == 0 {
		t.Fatal("no node spec built a steady table")
	}
	if coasting.Kind() != "pm" {
		t.Fatalf("totals-only batch has kind %q, want pm", coasting.Kind())
	}

	coastTicks := make([]int, len(lanes))
	coasts := make([]int, len(lanes))
	prev := make([]int, len(lanes))
	// expect[k] is what an act requires of lane k's next tick: "coast",
	// "step" or "" for nothing.
	expect := make([]string, len(lanes))
	done := make([]bool, len(acts))
	for round := 1; ; round++ {
		a, g := coasting.StepAll(), general.StepAll()
		if a != g {
			t.Fatalf("round %d: stepped %v coasting, %v without", round, a, g)
		}
		if !a {
			break
		}
		for k := range lanes {
			d, h := machine.CoastOf(coasting, k)
			if d > h {
				t.Fatalf("round %d lane %d: %d ticks deferred past a horizon of %d", round, k, d, h)
			}
			coasted := d == prev[k]+1
			if coasted {
				coastTicks[k]++
				if d == 1 {
					coasts[k]++
				}
			}
			if expect[k] == "coast" && !coasted || expect[k] == "step" && coasted {
				t.Fatalf("round %d lane %d: coasted %v, want the tick to %s", round, k, coasted, expect[k])
			}
			expect[k] = ""
			prev[k] = d
			if d, _ := machine.CoastOf(general, k); d != 0 {
				t.Fatalf("round %d lane %d: the cleared-table twin coasted", round, k)
			}
			compareLane(t, fmt.Sprintf("round %d lane %d", round, k), coasting, general, k)
		}
		for j, act := range acts {
			if done[j] || round < act.after {
				continue
			}
			// Mid-coast, and not at its horizon, where the coast ends on
			// the next tick anyway.
			if d, h := machine.CoastOf(coasting, act.lane); d == 0 || d == h {
				continue
			}
			if s1, s2 := act.do(coasting, act.lane), act.do(general, act.lane); s1 != s2 {
				t.Fatalf("round %d lane %d: %s reads\n%.400s coasting,\n%.400s without", round, act.lane, act.name, s1, s2)
			}
			if act.ends {
				expect[act.lane] = "step"
			} else {
				expect[act.lane] = "coast"
			}
			done[j] = true
		}
	}
	for j, act := range acts {
		if !done[j] {
			t.Errorf("lane %d never coasted from round %d on for %s", act.lane, act.after, act.name)
		}
	}
	for k := range lanes {
		e1, e2 := coasting.NodeErr(k), general.NodeErr(k)
		if fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Errorf("lane %d: error %v coasting, %v without", k, e1, e2)
		}
		if s1, s2 := runText(coasting.Result(k)), runText(general.Result(k)); s1 != s2 {
			t.Errorf("lane %d: run differs:\ncoasting: %.400s\nwithout:  %.400s", k, s1, s2)
		}
	}
	t.Logf("coasted node-ticks per lane %v in coasts %v", coastTicks, coasts)
	total := 0
	for _, n := range coastTicks {
		total += n
	}
	if total < 5000 {
		t.Errorf("coasted %d node-ticks, want at least 5000", total)
	}
	if coastTicks[quantLane] == 0 {
		t.Error("the quantized lane never coasted")
	}
	if coastTicks[noisyLane] != 0 || coastTicks[pinnedLane] != 0 {
		t.Errorf("noisy lane coasted %d ticks and pinned lane %d, want none", coastTicks[noisyLane], coastTicks[pinnedLane])
	}
	if coasts[multiLane] < 4 {
		t.Errorf("multi-phase lane coasted %d times, want a coast in each of several busy phases", coasts[multiLane])
	}
	if err := coasting.NodeErr(boundLane); err == nil || !strings.Contains(err.Error(), "exceeded 260 ticks") || coastTicks[boundLane] == 0 {
		t.Errorf("bounded lane: error %v after %d coasted ticks, want the tick bound after a coast", err, coastTicks[boundLane])
	}
	if coasting.Kind() != "generic" {
		t.Error("Subscribe did not put the batch on the full event order")
	}

}

// compareLane fails unless node k of both batches reads the same bits
// through every accessor a caller may use mid-run.
func compareLane(t *testing.T, at string, a, b *machine.BatchState, k int) {
	t.Helper()
	if d1, d2 := a.LastDPC(k), b.LastDPC(k); math.Float64bits(d1) != math.Float64bits(d2) {
		t.Fatalf("%s: decode rate %v coasting, %v without", at, d1, d2)
	}
	if w1, w2 := a.LastPowerW(k), b.LastPowerW(k); math.Float64bits(w1) != math.Float64bits(w2) {
		t.Fatalf("%s: measured power %v coasting, %v without", at, w1, w2)
	}
	if s1, s2 := a.Seq(k), b.Seq(k); s1 != s2 {
		t.Fatalf("%s: %d intervals coasting, %d without", at, s1, s2)
	}
	if n1, n2 := a.Ticks(k), b.Ticks(k); n1 != n2 {
		t.Fatalf("%s: %d ticks coasting, %d without", at, n1, n2)
	}
	l1, _ := machine.LaneOf(a, k)
	l2, _ := machine.LaneOf(b, k)
	if s1, s2 := laneText(l1), laneText(l2); s1 != s2 {
		t.Fatalf("%s: governor lane %s coasting, %s without", at, s1, s2)
	}
	if a.NodeDone(k) != b.NodeDone(k) || (a.NodeErr(k) == nil) != (b.NodeErr(k) == nil) {
		t.Fatalf("%s: done %v err %v coasting, done %v err %v without", at, a.NodeDone(k), a.NodeErr(k), b.NodeDone(k), b.NodeErr(k))
	}
}
