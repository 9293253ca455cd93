package machine_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"aapm/internal/control"
	"aapm/internal/faults"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// eventTap formats every event a hooked lane hears, so the event
// streams of two batches compare as text.
type eventTap struct{ log strings.Builder }

func (h *eventTap) OnTick(ts machine.TickState)        { fmt.Fprintf(&h.log, "tick %+v\n", ts) }
func (h *eventTap) OnTransition(tr machine.Transition) { fmt.Fprintf(&h.log, "trans %+v\n", tr) }
func (h *eventTap) OnDegradation(d trace.Degradation)  { fmt.Fprintf(&h.log, "degr %+v\n", d) }
func (h *eventTap) OnDone(*trace.Run)                  { h.log.WriteString("done\n") }

// steadyLane is one node of a steady-path differential batch. gov
// builds a fresh governor, or lane a bare lane policy and its starting
// lane; with neither the node has no governor.
type steadyLane struct {
	cfg    machine.Config
	w      phase.Workload
	gov    func() (machine.Governor, error)
	lane   func() (machine.LanePolicy, machine.GovLane, error)
	hooked bool
}

// countingPolicy counts the TickLane calls the engine makes through a
// lane policy, so two twins' counts differ by the calls the settled
// memo skipped.
type countingPolicy struct {
	machine.LanePolicy
	calls *int
}

func (p *countingPolicy) TickLane(st *machine.GovLane, info *machine.TickInfo) (int, uint8) {
	*p.calls++
	return p.LanePolicy.TickLane(st, info)
}

// countedPM is a PM handle whose policy counts its TickLane calls.
type countedPM struct {
	*control.PerformanceMaximizer
	pol *countingPolicy
}

func (g *countedPM) Policy() machine.LanePolicy { return g.pol }

// notingPolicy keeps its node's p-state and lane and notes one event
// on every tick: a fixed point whose ticks still log.
type notingPolicy struct{}

func (*notingPolicy) LaneName(*machine.GovLane) string { return "noting" }
func (*notingPolicy) NameClass() string                { return "noting" }
func (*notingPolicy) TickLane(_ *machine.GovLane, info *machine.TickInfo) (int, uint8) {
	return info.PStateIndex, 1
}
func (*notingPolicy) LaneDegradations(*machine.GovLane, uint8) []trace.Degradation {
	return []trace.Degradation{{Source: "test", Kind: "noted"}}
}
func (*notingPolicy) LaneDesireW(*machine.GovLane, *pstate.Table, float64) float64 { return 0 }

// laneAct is a write to a lane between rounds. It is applied once, to
// both twins, after the first round no earlier than after that ends
// with the as-built twin's lane settled, so every act lands on a lane
// the engine would otherwise skip.
type laneAct struct {
	name  string
	lane  int
	after int
	do    func(b *machine.BatchState, k int)
}

// handle returns node k's PM handle.
func handle(b *machine.BatchState, k int) *control.PerformanceMaximizer {
	return b.Governor(k).(*countedPM).PerformanceMaximizer
}

// TestSteadyTickMatchesGeneral steps every batch twice: once as built,
// where zero-jitter nodes read their full mid-phase intervals from the
// spec's steady table and settled lanes skip their governor, and once
// with the table cleared, where every interval takes the general
// execute and measure path and every lane ticks its policy. Every lane
// must agree bit for bit after every round (decode rate, measured
// power, interval count, governor lane) and at the end (trace CSV,
// every row, the totals, the degradation log and, for hooked lanes,
// the event stream). Each PM lane counts its policy's TickLane calls,
// and a case that names a least skip count must skip at least that
// many node-ticks.
func TestSteadyTickMatchesGeneral(t *testing.T) {
	// Several busy phases of different intensity, an idle phase, a
	// phase shorter than one interval, and phase ends that fall inside
	// intervals; repeated, so the phase list wraps.
	multi := phase.Workload{
		Name:       "steady-multi",
		Iterations: 2,
		Phases: []phase.Params{
			{Name: "cpu", Instructions: 3.3e8, CPICore: 0.7, L2APKI: 4, MemAPKI: 0.5, MemBPI: 0.3, MLP: 2, SpecFactor: 1.1, StallFrac: 0.05},
			{Name: "nap", IdleDuration: 25 * time.Millisecond},
			{Name: "mem", Instructions: 1.7e8, CPICore: 1.4, L2APKI: 45, MemAPKI: 22, MemBPI: 9, MLP: 3, SpecFactor: 1.2, StallFrac: 0.3},
			{Name: "blip", Instructions: 4.1e6, CPICore: 0.9, L2APKI: 10, MemAPKI: 2, MemBPI: 1, MLP: 1, SpecFactor: 1.05, StallFrac: 0.1},
			{Name: "mid", Instructions: 2.2e8, CPICore: 1.1, L2APKI: 20, MemAPKI: 6, MemBPI: 3, MLP: 2, SpecFactor: 1.1, StallFrac: 0.2},
		},
	}
	// A fleet-style node: one busy phase.
	single := phase.Workload{
		Name:   "steady-single",
		Phases: []phase.Params{{Name: "cpu", Instructions: 9e8, CPICore: 1, MLP: 1, SpecFactor: 1.05}},
	}
	// The same phases with jitter build no table; in a mixed batch
	// they stay on the general path in both twins.
	jittery := multi
	jittery.Name, jittery.JitterPct = "steady-jitter", 0.08

	// Transitions cost latency, so an interval after a p-state move
	// starts with pending stall and is not a steady one.
	quiet := machine.Config{Seed: 11, TransitionLatency: -1}
	noisy := machine.Config{Seed: 12, Chain: sensor.NIDefault(), TransitionLatency: 50 * time.Microsecond}
	faulted := noisy
	plan := faults.Preset(0.06)
	faulted.Faults = &plan
	warm := noisy
	tc := thermal.PentiumMThermal()
	warm.Thermal = &tc

	pm := func(limitW, gain float64, degrade bool) func() (machine.Governor, error) {
		return func() (machine.Governor, error) {
			return control.NewPerformanceMaximizer(control.PMConfig{LimitW: limitW, FeedbackGain: gain, Degrade: degrade})
		}
	}
	ps := func() (machine.Governor, error) { return control.NewPowerSave(control.PSConfig{Floor: 0.8}) }
	throttle := func() (machine.Governor, error) {
		return control.NewThrottleSave(control.ThrottleSaveConfig{Floor: 0.6})
	}
	static := func() (machine.Governor, error) { return control.NewStaticClock(2, "static-2"), nil }
	bare := func(cfg control.PMConfig) func() (machine.LanePolicy, machine.GovLane, error) {
		return func() (machine.LanePolicy, machine.GovLane, error) {
			pol, err := control.NewPMPolicy(cfg)
			if err != nil {
				return nil, machine.GovLane{}, err
			}
			return pol, pol.Lane(cfg.LimitW), nil
		}
	}
	noting := func() (machine.LanePolicy, machine.GovLane, error) {
		return &notingPolicy{}, machine.GovLane{}, nil
	}

	// Settling lanes: zero-jitter PM lanes with feedback on a
	// noiseless chain reach a fixed point within each phase, and a
	// steady tick there skips the policy. Limits are changed and the
	// hysteresis bypassed between rounds, through the batch and
	// through a handle, on settled lanes.
	ideal := machine.Config{Seed: 13}
	long := single
	long.Name = "steady-long"
	long.Phases = []phase.Params{single.Phases[0]}
	long.Phases[0].Instructions *= 10
	longMulti := multi
	longMulti.Name = "steady-long-multi"
	longMulti.Phases = append([]phase.Params(nil), multi.Phases...)
	for k := range longMulti.Phases {
		longMulti.Phases[k].Instructions *= 4
	}
	settling := []steadyLane{
		{cfg: ideal, w: long, gov: pm(14.5, 0.25, false)},
		{cfg: ideal, w: long, gov: pm(13, 1, false)},
		{cfg: ideal, w: longMulti, gov: pm(13.5, 0.25, true)},
		{cfg: quiet, w: longMulti, gov: pm(12.5, 0, false)},
		{cfg: ideal, w: long, lane: bare(control.PMConfig{LimitW: 13.5, FeedbackGain: 0.5})},
		{cfg: ideal, w: long, lane: noting},
	}
	settlingActs := []laneAct{
		{name: "batch SetLimit down", lane: 0, after: 150, do: func(b *machine.BatchState, k int) { b.SetLimit(k, 11.5) }},
		{name: "handle SetLimit up", lane: 1, after: 100, do: func(b *machine.BatchState, k int) { handle(b, k).SetLimit(16) }},
		{name: "handle BypassHysteresis", lane: 0, after: 250, do: func(b *machine.BatchState, k int) { handle(b, k).BypassHysteresis() }},
		{name: "handle BypassHysteresis", lane: 2, after: 60, do: func(b *machine.BatchState, k int) { handle(b, k).BypassHysteresis() }},
		{name: "batch SetLimit up", lane: 4, after: 120, do: func(b *machine.BatchState, k int) { b.SetLimit(k, 15) }},
	}
	// The same lanes behind a sensor chain whose noise mostly rounds
	// to one quantization step: settled lanes meet readings that moved.
	coarse := sensor.Chain{NoiseStdW: 0.03, QuantStepW: 0.25}
	noisySettling := make([]steadyLane, len(settling))
	for k, l := range settling {
		l.cfg.Chain = coarse
		noisySettling[k] = l
	}
	// And with one faulted lane, which puts the batch on the full
	// event order, and a hooked settling lane.
	faultedSettling := append([]steadyLane{{cfg: faulted, w: single, gov: pm(13.5, 0.25, true)}}, settling[:5]...)
	faultedSettling[2].hooked = true
	shift := func(acts []laneAct) []laneAct {
		out := make([]laneAct, len(acts))
		for k, a := range acts {
			a.lane++
			out[k] = a
		}
		return out
	}

	cases := []struct {
		name  string
		lanes []steadyLane
		acts  []laneAct
		// minSkips is the least number of node-ticks the as-built
		// twin must skip the policy on.
		minSkips int
		// check asserts that the case exercises what it is named for,
		// on the as-built twin's results.
		check func(t *testing.T, runs []*trace.Run)
	}{
		{
			name: "phases",
			lanes: []steadyLane{
				{cfg: quiet, w: multi},
				{cfg: noisy, w: multi, gov: static},
				{cfg: noisy, w: single},
				{cfg: noisy, w: jittery},
			},
			check: func(t *testing.T, runs []*trace.Run) {
				partial := 0
				for _, row := range runs[0].Rows {
					if row.Interval < machine.DefaultSamplePeriod {
						partial++
					}
				}
				if partial != 1 {
					t.Errorf("multi-phase lane has %d partial intervals, want only the last", partial)
				}
			},
		},
		{
			name: "pm feedback",
			lanes: []steadyLane{
				{cfg: noisy, w: multi, gov: pm(13.5, 0.25, false)},
				{cfg: quiet, w: multi, gov: pm(12, 0.2, true)},
				{cfg: noisy, w: single, gov: pm(14.5, 0.25, false)},
			},
			check: func(t *testing.T, runs []*trace.Run) {
				for k, run := range runs[:2] {
					if run.Transitions < 2 || run.StallTime <= 0 {
						t.Errorf("PM lane %d made %d transitions with %v stall; want p-state moves and pending stall", k, run.Transitions, run.StallTime)
					}
				}
			},
		},
		{
			name: "powersave and throttle",
			lanes: []steadyLane{
				{cfg: noisy, w: multi, gov: ps},
				{cfg: quiet, w: multi, gov: throttle},
				{cfg: noisy, w: single},
			},
			check: func(t *testing.T, runs []*trace.Run) {
				if runs[0].Transitions == 0 {
					t.Error("PowerSave lane never changed p-state")
				}
				throttled := 0
				for _, row := range runs[1].Rows {
					if row.Duty < 1 {
						throttled++
					}
				}
				if throttled == 0 {
					t.Error("ThrottleSave lane never ran at a duty below 1")
				}
			},
		},
		{
			name: "faults thermal hooks",
			lanes: []steadyLane{
				{cfg: faulted, w: multi, gov: pm(13.5, 0.25, true)},
				{cfg: warm, w: multi, gov: pm(13, 0.2, false)},
				{cfg: noisy, w: multi, gov: pm(13.5, 0.25, false), hooked: true},
				{cfg: noisy, w: single, gov: ps, hooked: true},
				{cfg: quiet, w: single},
			},
			check: func(t *testing.T, runs []*trace.Run) {
				if runs[0].DegradationTotal() == 0 {
					t.Error("faulted lane logged no degradation")
				}
			},
		},
		{
			name:     "settled lanes",
			lanes:    settling,
			acts:     settlingActs,
			minSkips: 2000,
			check: func(t *testing.T, runs []*trace.Run) {
				if runs[0].Transitions == 0 || runs[1].Transitions == 0 {
					t.Error("a limit change on a settled lane moved no p-state")
				}
				if runs[5].DegradationTotal() == 0 {
					t.Error("noting lane logged nothing")
				}
			},
		},
		{
			name:  "settled lanes coarse noise",
			lanes: noisySettling,
			// Feedback at gain 1 and no feedback settle here.
			acts: []laneAct{
				{name: "batch SetLimit down", lane: 3, after: 150, do: func(b *machine.BatchState, k int) { b.SetLimit(k, 11) }},
				{name: "handle SetLimit up", lane: 1, after: 100, do: func(b *machine.BatchState, k int) { handle(b, k).SetLimit(16) }},
				{name: "handle BypassHysteresis", lane: 1, after: 400, do: func(b *machine.BatchState, k int) { handle(b, k).BypassHysteresis() }},
			},
			minSkips: 800,
			check: func(t *testing.T, runs []*trace.Run) {
				seen := map[float64]bool{}
				for _, row := range runs[1].Rows {
					seen[row.MeasuredPowerW] = true
				}
				if len(seen) < 3 {
					t.Errorf("gain-1 lane read %d distinct powers, want a chain whose readings move", len(seen))
				}
			},
		},
		{
			name:     "settled lanes faulted",
			lanes:    faultedSettling,
			acts:     shift(settlingActs),
			minSkips: 2000,
			check: func(t *testing.T, runs []*trace.Run) {
				if runs[0].DegradationTotal() == 0 {
					t.Error("faulted lane logged no degradation")
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*machine.BatchState, []*eventTap, *int) {
				nodes := make([]machine.BatchNode, len(tc.lanes))
				taps := make([]*eventTap, len(tc.lanes))
				calls := new(int)
				for k, l := range tc.lanes {
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
						if pm, ok := g.(*control.PerformanceMaximizer); ok {
							g = &countedPM{PerformanceMaximizer: pm, pol: &countingPolicy{pm.Policy(), calls}}
						}
						nodes[k].Governor = g
					}
					if l.lane != nil {
						pol, lane, err := l.lane()
						if err != nil {
							t.Fatal(err)
						}
						nodes[k].Policy, nodes[k].Lane = &countingPolicy{pol, calls}, lane
					}
					if l.hooked {
						taps[k] = &eventTap{}
					}
				}
				b, err := machine.NewBatch(nodes, machine.BatchOptions{
					RetainTraces: true,
					Hooks: func(k int) []machine.Hook {
						if taps[k] == nil {
							return nil
						}
						return []machine.Hook{taps[k]}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				return b, taps, calls
			}
			steady, steadyTaps, steadyCalls := build()
			general, generalTaps, generalCalls := build()
			if machine.ClearSteady(general) == 0 {
				t.Fatal("no node spec built a steady table")
			}
			if steady.Kind() != general.Kind() {
				t.Fatalf("kinds differ: %s vs %s", steady.Kind(), general.Kind())
			}

			done := make([]bool, len(tc.acts))
			for round := 1; ; round++ {
				a, g := steady.StepAll(), general.StepAll()
				if a != g {
					t.Fatalf("round %d: stepped %v with the table, %v without", round, a, g)
				}
				if !a {
					break
				}
				for k := range tc.lanes {
					if d1, d2 := steady.LastDPC(k), general.LastDPC(k); math.Float64bits(d1) != math.Float64bits(d2) {
						t.Fatalf("round %d lane %d: decode rate %v with the table, %v without", round, k, d1, d2)
					}
					if w1, w2 := steady.LastPowerW(k), general.LastPowerW(k); math.Float64bits(w1) != math.Float64bits(w2) {
						t.Fatalf("round %d lane %d: measured power %v with the table, %v without", round, k, w1, w2)
					}
					if s1, s2 := steady.Seq(k), general.Seq(k); s1 != s2 {
						t.Fatalf("round %d lane %d: %d intervals with the table, %d without", round, k, s1, s2)
					}
					l1, _ := machine.LaneOf(steady, k)
					l2, _ := machine.LaneOf(general, k)
					if s1, s2 := laneText(l1), laneText(l2); s1 != s2 {
						t.Fatalf("round %d lane %d: governor lane %s with the table, %s without", round, k, s1, s2)
					}
				}
				for j, act := range tc.acts {
					if done[j] || round < act.after {
						continue
					}
					if _, settled := machine.LaneOf(steady, act.lane); settled {
						act.do(steady, act.lane)
						act.do(general, act.lane)
						if _, settled := machine.LaneOf(steady, act.lane); settled {
							t.Fatalf("round %d lane %d: %s left the lane settled", round, act.lane, act.name)
						}
						done[j] = true
					}
				}
			}
			for j, act := range tc.acts {
				if !done[j] {
					t.Errorf("lane %d never settled from round %d on for %s", act.lane, act.after, act.name)
				}
			}
			if skips := *generalCalls - *steadyCalls; skips < tc.minSkips {
				t.Errorf("skipped the policy on %d node-ticks (%d calls with the table, %d without), want at least %d",
					skips, *steadyCalls, *generalCalls, tc.minSkips)
			}

			runs := make([]*trace.Run, len(tc.lanes))
			for k := range tc.lanes {
				if e1, e2 := steady.NodeErr(k), general.NodeErr(k); e1 != nil || e2 != nil {
					t.Fatalf("lane %d failed: %v with the table, %v without", k, e1, e2)
				}
				r1, r2 := steady.Result(k), general.Result(k)
				var c1, c2 bytes.Buffer
				if err := r1.WriteCSV(&c1); err != nil {
					t.Fatal(err)
				}
				if err := r2.WriteCSV(&c2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
					t.Errorf("lane %d: trace CSV differs", k)
				}
				if s1, s2 := runText(r1), runText(r2); s1 != s2 {
					t.Errorf("lane %d: run differs:\nwith the table: %.400s\nwithout:        %.400s", k, s1, s2)
				}
				if tp := steadyTaps[k]; tp != nil && tp.log.String() != generalTaps[k].log.String() {
					t.Errorf("lane %d: hook event stream differs", k)
				}
				runs[k] = r1
			}
			tc.check(t, runs)
		})
	}
}

// runText formats every field of run, rows and degradation log
// included, leaving out only the address of its phase-label table.
// %v prints each float in the shortest form that reads back exactly,
// so two runs with a float that differs in any bit format apart (a
// NaN's payload aside).
func runText(run *trace.Run) string {
	r := *run
	r.Phases = nil
	return fmt.Sprintf("%+v", r)
}

// laneText formats the policy fields of a lane by their bits.
func laneText(l machine.GovLane) string {
	return fmt.Sprintf("{limit %#x corr %#x dpc %#x pending %d flags %#x}",
		math.Float64bits(l.LimitW), math.Float64bits(l.Corr), math.Float64bits(l.DPC), l.PendingUp, l.Flags)
}
