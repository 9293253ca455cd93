package machine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
	"unsafe"

	"aapm/internal/faults"
	"aapm/internal/phase"
	"aapm/internal/power"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// The seam tests below drive the tick engine's lane functions on a
// session's one-lane batch (s.b, lane 0).

func mustSession(t *testing.T, cfg Config, w phase.Workload, g Governor) *Session {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession(w, g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// executeLane runs the execute stage on lane 0 at its current p-state
// and names the phase label it returns.
func executeLane(s *Session) (used, busy, stall time.Duration, instr float64, phName string, ok bool) {
	var ph uint32
	used, busy, stall, instr, _, ph, _, ok = s.b.executeTick(0, int(s.b.curIdx[0]), &s.b.rec.info.Sample)
	return used, busy, stall, instr, s.b.runs[0].Phases.Name(ph), ok
}

func TestExecuteIdlePhase(t *testing.T) {
	w := phase.Workload{
		Name: "idle-first",
		Phases: []phase.Params{
			{Name: "idle", IdleDuration: 100 * time.Millisecond},
			{Name: "work", Instructions: 1e8, CPICore: 0.5, MLP: 1, SpecFactor: 1.1},
		},
	}
	s := mustSession(t, Config{Seed: 1}, w, nil)
	used, busy, stall, instr, phName, ok := executeLane(s)
	if !ok {
		t.Fatal("execute reported exhausted on a fresh workload")
	}
	if used != s.b.plats[0].period {
		t.Errorf("idle interval used = %v, want full %v", used, s.b.plats[0].period)
	}
	if busy != 0 {
		t.Errorf("idle interval busy = %v, want 0", busy)
	}
	if instr != 0 {
		t.Errorf("idle interval retired %g instructions, want 0", instr)
	}
	if phName != "idle" {
		t.Errorf("phase = %q, want idle", phName)
	}
	if stall != 0 {
		t.Errorf("stall = %v, want 0", stall)
	}
}

func TestExecuteExhaustedWorkload(t *testing.T) {
	s := mustSession(t, Config{Seed: 1}, testWorkload(1e7), nil)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if used, _, _, _, _, ok := executeLane(s); ok || used != 0 {
		t.Errorf("execute on an exhausted workload = (used %v, ok %v), want (0, false)", used, ok)
	}
	// Step stays terminal and side-effect free once done.
	rows := len(s.b.runs[0].Rows)
	done, err := s.Step()
	if err != nil || !done {
		t.Errorf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
	if len(s.b.runs[0].Rows) != rows {
		t.Errorf("Step after done appended rows: %d -> %d", rows, len(s.b.runs[0].Rows))
	}
}

func TestExecuteChargesPendingStall(t *testing.T) {
	s := mustSession(t, Config{Seed: 1}, testWorkload(1e9), nil)
	s.b.pendStall[0] = 3 * time.Millisecond
	_, busy, stall, _, _, ok := executeLane(s)
	if !ok {
		t.Fatal("execute reported exhausted")
	}
	if stall != 3*time.Millisecond {
		t.Errorf("stall = %v, want 3ms", stall)
	}
	if s.b.pendStall[0] != 0 {
		t.Errorf("pending stall not consumed: %v", s.b.pendStall[0])
	}
	if busy > s.b.plats[0].period-stall {
		t.Errorf("busy %v exceeds interval minus stall", busy)
	}
}

func TestMeasureNaNDropout(t *testing.T) {
	s := mustSession(t, Config{
		Seed:   1,
		Faults: &faults.Plan{Sensor: faults.SensorPlan{DropoutProb: 1, DropoutTicks: 1}},
	}, testWorkload(5e8), nil)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	run := s.Result()
	if len(run.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, r := range run.Rows {
		if !math.IsNaN(r.MeasuredPowerW) {
			t.Fatalf("row %d measured %g W, want NaN under total dropout", i, r.MeasuredPowerW)
		}
	}
	// Ground truth is untouched: true energy integrates, measured does
	// not (dropped acquisitions contribute nothing).
	if run.EnergyJ <= 0 {
		t.Error("true energy not integrated")
	}
	if run.MeasuredEnergyJ != 0 {
		t.Errorf("measured energy %g J, want 0 under total dropout", run.MeasuredEnergyJ)
	}
	if len(run.Degradations) == 0 {
		t.Error("dropout faults produced no degradation log entries")
	}
}

// transitionTap records every transition event on the bus.
type transitionTap struct {
	BaseHook
	events []Transition
}

func (h *transitionTap) OnTransition(tr Transition) { h.events = append(h.events, tr) }

func TestActuateAbandonedTransition(t *testing.T) {
	s := mustSession(t, Config{
		Seed:              1,
		TransitionLatency: time.Millisecond,
		Faults:            &faults.Plan{Actuator: faults.ActuatorPlan{FailProb: 1, Retries: 0}},
	}, testWorkload(5e8), &flipGov{})
	tap := &transitionTap{}
	s.Subscribe(tap)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	run := s.Result()
	if len(tap.events) == 0 {
		t.Fatal("flip governor produced no transition attempts")
	}
	for i, tr := range tap.events {
		if tr.OK {
			t.Fatalf("event %d OK with FailProb=1", i)
		}
		if tr.Stall != time.Millisecond {
			t.Errorf("event %d stall = %v, want the failed attempt's 1ms", i, tr.Stall)
		}
	}
	// The actuator never moves: every interval stays at the start state.
	for i, r := range run.Rows {
		if r.FreqMHz != run.Rows[0].FreqMHz {
			t.Fatalf("row %d at %d MHz despite abandoned transitions", i, r.FreqMHz)
		}
	}
	if run.Transitions != 0 {
		t.Errorf("run counted %d applied transitions, want 0", run.Transitions)
	}
	if run.FailedTransitions != len(tap.events) {
		t.Errorf("run.FailedTransitions = %d, want %d", run.FailedTransitions, len(tap.events))
	}
}

// busTap counts bus events and checks the run's own row is recorded
// before any hook fires.
type busTap struct {
	name     string
	order    *[]string
	run      *trace.Run
	t        *testing.T
	ticks    int
	dones    int
	trans    int
	degrades int
}

func (h *busTap) OnTick(ts TickState) {
	h.ticks++
	*h.order = append(*h.order, h.name)
	// The engine appends the tick's row before fanning out, so hooks
	// observe it already recorded.
	if len(h.run.Rows) != h.ticks {
		h.t.Errorf("hook %s saw %d rows at tick %d", h.name, len(h.run.Rows), h.ticks)
	}
}

func (h *busTap) OnTransition(Transition) { h.trans++ }

func (h *busTap) OnDegradation(trace.Degradation) { h.degrades++ }

func (h *busTap) OnDone(*trace.Run) { h.dones++ }

func TestHookBusOrderAndCounts(t *testing.T) {
	s := mustSession(t, Config{Seed: 1}, testWorkload(3e8), &flipGov{})
	var order []string
	a := &busTap{name: "a", order: &order, run: &s.b.runs[0], t: t}
	b := &busTap{name: "b", order: &order, run: &s.b.runs[0], t: t}
	s.Subscribe(a)
	s.Subscribe(b)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	run := s.Result()
	if a.ticks != len(run.Rows) || b.ticks != len(run.Rows) {
		t.Errorf("tick events %d/%d, want %d (one per row)", a.ticks, b.ticks, len(run.Rows))
	}
	if a.trans != run.Transitions {
		t.Errorf("transition events %d, want %d", a.trans, run.Transitions)
	}
	if a.dones != 1 {
		t.Errorf("OnDone fired %d times, want 1", a.dones)
	}
	s.Result() // finalization is idempotent
	if a.dones != 1 {
		t.Errorf("second Result re-fired OnDone: %d", a.dones)
	}
	// Subscription order holds on every tick: a before b.
	if len(order) != 2*len(run.Rows) {
		t.Fatalf("order log has %d entries, want %d", len(order), 2*len(run.Rows))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("tick %d fired hooks as %v, want [a b]", i/2, order[i:i+2])
		}
	}
}

// timingTap sums per-stage wall-clock across ticks.
type timingTap struct {
	BaseHook
	nanos [NumStages]int64
}

func (h *timingTap) OnTick(ts TickState) {
	for i, n := range ts.StageNanos {
		h.nanos[i] += n
	}
}

func (h *timingTap) total() int64 {
	var sum int64
	for _, n := range h.nanos {
		sum += n
	}
	return sum
}

func TestStageTimingGated(t *testing.T) {
	// Timing off (the default): every StageNanos stays zero.
	s := mustSession(t, Config{Seed: 1}, testWorkload(2e8), nil)
	off := &timingTap{}
	s.Subscribe(off)
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if off.total() != 0 {
		t.Errorf("stage timing recorded %d ns while disabled", off.total())
	}

	// Timing on: the run accumulates nonzero wall-clock, and the
	// virtual-time result is unaffected.
	s2 := mustSession(t, Config{Seed: 1}, testWorkload(2e8), nil)
	on := &timingTap{}
	s2.Subscribe(on)
	s2.EnableStageTiming()
	for {
		done, err := s2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if on.total() <= 0 {
		t.Error("stage timing enabled but no wall-clock recorded")
	}
	if d1, d2 := s.Result().Duration, s2.Result().Duration; d1 != d2 {
		t.Errorf("stage timing changed virtual duration: %v vs %v", d1, d2)
	}
}

// TestNewBatchSharedWiring pins the batch's per-node footprint:
// distinct machines of one configuration share one platform entry and
// nodes of one workload shape one spec entry, and the optional
// per-node slices exist only once some node needs them.
func TestNewBatchSharedWiring(t *testing.T) {
	const n = 6
	truth := power.PentiumM755Truth()
	w := testWorkload(1e9)
	build := func(t *testing.T, cfg func(i int) Config, node func(i int, b *BatchNode), opts BatchOptions) *BatchState {
		t.Helper()
		nodes := make([]BatchNode, n)
		for i := range nodes {
			m, err := New(cfg(i))
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = BatchNode{Machine: m, Workload: w}
			if node != nil {
				node(i, &nodes[i])
			}
		}
		b, err := NewBatch(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bare := func(i int) Config { return Config{Truth: truth, Seed: int64(i)} }

	b := build(t, bare, nil, BatchOptions{})
	if len(b.plats) != 1 || len(b.specs) != 1 || len(b.lpols) != 1 {
		t.Errorf("%d machines of one config: %d platforms, %d specs, %d lane policies, want 1, 1 and 1 (nil)",
			n, len(b.plats), len(b.specs), len(b.lpols))
	}
	if b.govs != nil || b.rngs != nil || b.injs != nil || b.tms != nil || b.duty != nil || b.hooks != nil {
		t.Error("a bare batch allocated optional per-node slices")
	}
	if b.Kind() != "pm" {
		t.Errorf("bare batch kind %q, want pm", b.Kind())
	}

	// A second workload shape adds a spec on the same platform; a
	// second transition latency adds a platform.
	other := testWorkload(2e9)
	b = build(t, func(i int) Config {
		c := bare(i)
		if i >= n/2 {
			c.TransitionLatency = time.Millisecond
		}
		return c
	}, func(i int, nd *BatchNode) {
		if i%2 == 1 {
			nd.Workload = other
		}
	}, BatchOptions{})
	if len(b.plats) != 2 || len(b.specs) != 4 {
		t.Errorf("2 configs x 2 workloads: %d platforms, %d specs, want 2 and 4", len(b.plats), len(b.specs))
	}

	// Lane nodes of one policy share its entry; a node without one
	// keeps entry 0.
	pol := &stubLanePolicy{}
	b = build(t, bare, func(i int, nd *BatchNode) {
		if i > 0 {
			nd.Policy = pol
		}
	}, BatchOptions{})
	if len(b.lpols) != 2 || b.pol[0] != 0 || b.pol[n-1] != 1 || len(b.specs) != 1 {
		t.Errorf("one lane policy: lpols %v, pol %v, %d specs", b.lpols, b.pol, len(b.specs))
	}

	// Each optional slice appears with the first node that needs it,
	// sized for the whole batch; nodes without one keep nil entries.
	tc := thermal.PentiumMThermal()
	plan := faults.Preset(0.05)
	b = build(t, func(i int) Config {
		c := bare(i)
		switch i {
		case 1:
			c.Chain = sensor.NIDefault()
		case 2:
			c.Faults = &plan
		case 3:
			c.Thermal = &tc
		}
		return c
	}, nil, BatchOptions{Hooks: func(i int) []Hook {
		if i == 4 {
			return []Hook{BaseHook{}}
		}
		return nil
	}})
	if b.rng(1) == nil || b.rng(0) != nil {
		t.Error("rngs: want a stream for the noisy node only")
	}
	if len(b.injs) != n || b.injs[2] == nil || b.injs[0] != nil {
		t.Error("injs: want an injector for the faulted node only")
	}
	if len(b.tms) != n || b.tms[3] == nil || b.tms[0] != nil {
		t.Error("tms: want a thermal model for the thermal node only")
	}
	if len(b.hooksOf(4)) != 1 || len(b.hooksOf(0)) != 0 {
		t.Error("hooks: want one hook on node 4 only")
	}
	if b.govs != nil || b.duty != nil {
		t.Error("a governor-less batch allocated governor or duty lanes")
	}
	if len(b.plats) != 2 {
		t.Errorf("noisy chain: %d platforms, want 2 (the fault and thermal configs act per node)", len(b.plats))
	}
}

// stubLanePolicy is a lane policy that keeps its node's p-state.
type stubLanePolicy struct{}

func (*stubLanePolicy) LaneName(*GovLane) string { return "stub" }
func (*stubLanePolicy) NameClass() string        { return "stub" }
func (*stubLanePolicy) TickLane(_ *GovLane, info *TickInfo) (int, uint8) {
	return info.PStateIndex, 0
}
func (*stubLanePolicy) LaneDegradations(*GovLane, uint8) []trace.Degradation { return nil }
func (*stubLanePolicy) LaneDesireW(*GovLane, *pstate.Table, float64) float64 { return 0 }

// TestNewBatchFuncInvalidNode checks that a batch validating each
// workload shape once still fails at the first invalid node, with that
// node's index wrapping its own Validate error: node k of a 10-node
// batch is invalid in turn by an empty name (its shape already
// validated), by jitter out of range, and by a phase of its own that
// is invalid.
func TestNewBatchFuncInvalidNode(t *testing.T) {
	const n, k = 10, 7
	m, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared := testWorkload(1e8)
	cases := map[string]func(w *phase.Workload){
		"empty name": func(w *phase.Workload) { w.Name = "" },
		"jitter":     func(w *phase.Workload) { w.JitterPct = 0.9 },
		"phase": func(w *phase.Workload) {
			w.Phases = []phase.Params{{Name: "bad", Instructions: -1, CPICore: 1, MLP: 1, SpecFactor: 1}}
		},
	}
	for name, spoil := range cases {
		t.Run(name, func(t *testing.T) {
			bad := shared
			bad.Name = fmt.Sprintf("w%d", k)
			spoil(&bad)
			want := bad.Validate()
			if want == nil {
				t.Fatal("spoiled workload validates")
			}
			read := 0
			_, err := NewBatchFunc(n, func(i int) (BatchNode, error) {
				read++
				w := shared
				w.Name = fmt.Sprintf("w%d", i)
				if i == k {
					w = bad
				}
				return BatchNode{Machine: m, Workload: w}, nil
			}, BatchOptions{})
			if err == nil || err.Error() != fmt.Sprintf("machine: batch node %d: %v", k, want) {
				t.Fatalf("error %v, want node %d's %v", err, k, want)
			}
			if got := errors.Unwrap(err); got == nil || got.Error() != want.Error() {
				t.Errorf("unwrapped error %v, want Validate's %v", got, want)
			}
			if read != k+1 {
				t.Errorf("read %d nodes, want the build to stop at node %d", read, k)
			}
		})
	}

	// An error from the node source fails the build with that error.
	srcErr := errors.New("no such node")
	if _, err := NewBatchFunc(n, func(i int) (BatchNode, error) {
		if i == k {
			return BatchNode{}, srcErr
		}
		return BatchNode{Machine: m, Workload: shared}, nil
	}, BatchOptions{}); err != srcErr {
		t.Errorf("source error: got %v, want %v", err, srcErr)
	}
}

// namingPolicy is a stub lane policy that counts its LaneName calls.
type namingPolicy struct {
	stubLanePolicy
	calls *int
}

func (p *namingPolicy) LaneName(st *GovLane) string {
	*p.calls++
	return fmt.Sprintf("n(%.1f)", st.LimitW)
}
func (*namingPolicy) NameClass() string { return "n" }

// TestNewBatchInternsLaneNames checks that nodes with policies of their
// own but one name class format one name per distinct starting lane,
// and that lanes which compare equal but format differently (-0 and +0
// limits) keep their own names.
func TestNewBatchInternsLaneNames(t *testing.T) {
	m, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	limits := []float64{10, 10, 12, 10, math.Copysign(0, -1), 0, 12}
	nodes := make([]BatchNode, len(limits))
	for i, l := range limits {
		nodes[i] = BatchNode{Machine: m, Workload: testWorkload(1e8), Policy: &namingPolicy{calls: &calls}, Lane: GovLane{LimitW: l}}
	}
	b, err := NewBatch(nodes, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"n(10.0)", "n(10.0)", "n(12.0)", "n(10.0)", "n(-0.0)", "n(0.0)", "n(12.0)"}
	for i, w := range want {
		if got := b.runs[i].Policy; got != w {
			t.Errorf("node %d policy %q, want %q", i, got, w)
		}
	}
	if calls != 4 {
		t.Errorf("%d LaneName calls, want 4 (one per distinct limit)", calls)
	}
}

// TestBatchNodeErrors checks the sparse error record: nodes that fail,
// stepped concurrently through steppers of their own, report their own
// errors through NodeErr, and Err returns the first by index.
func TestBatchNodeErrors(t *testing.T) {
	const n = 6
	nodes := make([]BatchNode, n)
	for i := range nodes {
		cfg := Config{Seed: int64(i)}
		if i == 1 || i == 4 {
			cfg.MaxTicks = 3 + i
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := testWorkload(1e10) // about 250 ticks
		w.Name = fmt.Sprintf("w%d", i)
		nodes[i] = BatchNode{Machine: m, Workload: w}
	}
	b, err := NewBatch(nodes, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, lo := range []int{0, n / 2} {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			s := b.NewStepper()
			for active := true; active; {
				active = false
				for i := lo; i < lo+n/2; i++ {
					active = s.Step(i) || active
				}
			}
		}(lo)
	}
	wg.Wait()
	if !b.Done() {
		t.Fatal("batch not done after every node stopped stepping")
	}
	for i := 0; i < n; i++ {
		err := b.NodeErr(i)
		switch i {
		case 1, 4:
			want := fmt.Sprintf("machine: run w%d/static exceeded %d ticks", i, 3+i)
			if err == nil || err.Error() != want {
				t.Errorf("node %d error %v, want %q", i, err, want)
			}
			if b.NodeDone(i) {
				t.Errorf("failed node %d reports done", i)
			}
		default:
			if err != nil || !b.NodeDone(i) {
				t.Errorf("node %d: error %v, done %v; want nil and done", i, err, b.NodeDone(i))
			}
		}
	}
	if err := b.Err(); err != b.NodeErr(1) {
		t.Errorf("Err() = %v, want node 1's error", err)
	}
}

// stubHandle is a LaneGovernor over stubLanePolicy.
type stubHandle struct {
	st  *GovLane
	own GovLane
}

func (h *stubHandle) Name() string                              { return "stub" }
func (h *stubHandle) Tick(*TickInfo) (int, []trace.Degradation) { return 0, nil }
func (h *stubHandle) Policy() LanePolicy                        { return &stubLanePolicy{} }
func (h *stubHandle) BindLane(l *GovLane) {
	*l = *h.st
	h.st = l
}

// TestSettledLaneWrites checks the settled marker's bookkeeping: it
// fits in GovLane's padding, every GovLane setter that changes the
// lane clears it, a SetLimit that leaves the lane bit-identical keeps
// it, and a lane that enters a batch starts without it, even when its
// handle was bound to a batch that had settled it.
func TestSettledLaneWrites(t *testing.T) {
	if got := unsafe.Sizeof(GovLane{}); got != 32 {
		t.Errorf("GovLane is %d bytes, want 32", got)
	}
	l := GovLane{LimitW: 12, PendingUp: 3, settled: true}
	l.SetLimit(13)
	if l.settled || l.LimitW != 13 || l.PendingUp != 0 {
		t.Errorf("after SetLimit: %+v, want limit 13, no streak, not settled", l)
	}
	// The limit's bits decide, not its value: a lane is settled for
	// the bits its policy read.
	for _, c := range []struct {
		name        string
		from, to    float64
		pendingUp   int32
		keepSettled bool
	}{
		{"equal bits", 13, 13, 0, true},
		{"equal -0", math.Copysign(0, -1), math.Copysign(0, -1), 0, true},
		{"different bits", 13, math.Nextafter(13, 14), 0, false},
		{"+0 to -0", 0, math.Copysign(0, -1), 0, false},
		{"-0 to +0", math.Copysign(0, -1), 0, 0, false},
		{"equal bits with a streak", 13, 13, 2, false},
	} {
		l := GovLane{LimitW: c.from, Corr: 0.5, PendingUp: c.pendingUp, settled: true}
		l.SetLimit(c.to)
		if l.settled != c.keepSettled {
			t.Errorf("%s: SetLimit(%v) from %v with streak %d left settled %v, want %v",
				c.name, c.to, c.from, c.pendingUp, l.settled, c.keepSettled)
		}
		if math.Float64bits(l.LimitW) != math.Float64bits(c.to) || l.PendingUp != 0 || l.Corr != 0.5 {
			t.Errorf("%s: after SetLimit(%v): %+v, want that limit's bits, no streak, the same correction", c.name, c.to, l)
		}
	}
	l.settled = true
	l.SetPendingUp(9)
	if l.settled || l.PendingUp != 9 {
		t.Errorf("after SetPendingUp: %+v, want streak 9, not settled", l)
	}

	m, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &stubHandle{}
	h.st = &h.own
	a, err := NewBatch([]BatchNode{{Machine: m, Workload: testWorkload(1e8), Governor: h}}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.lanes[0].settled = true
	b, err := NewBatch([]BatchNode{
		{Machine: m, Workload: testWorkload(1e8), Governor: h},
		{Machine: m, Workload: testWorkload(1e8), Policy: &stubLanePolicy{}, Lane: GovLane{settled: true}},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if b.lanes[i].settled {
			t.Errorf("node %d entered the batch settled", i)
		}
	}
	b.lanes[0].settled = true
	b.SetLimit(0, 10)
	if b.lanes[0].settled {
		t.Error("BatchState.SetLimit left the lane settled")
	}
}
