package machine

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aapm/internal/counters"
	"aapm/internal/faults"
	"aapm/internal/phase"
	"aapm/internal/power"
	"aapm/internal/pstate"
	"aapm/internal/sensor"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// The tick engine steps one or many nodes through their monitoring
// intervals with a struct-of-arrays layout and one step function
// (step, batch_step.go). It is the only implementation of the paper's
// 10 ms loop: a Session is a one-lane BatchState, and the fleet, serve
// and experiment paths step many-lane ones. All mutable per-node state
// lives in contiguous parallel slices. One batch flag, full, turns on
// the parts of the event order most runs lack; it is set when the
// batch is built, or later by Subscribe or EnableStageTiming, and Kind
// names the two settings:
//
//	Kind      full  governor            faults  thermal  hooks  stage timing
//	pm        off   any but Throttler   off     off      none   off
//	generic   on    any                 any     any      any    any
//
// "pm" is named for its first user. Nodes with no governor,
// lane-policy nodes (PerformanceMaximizer) and governor objects
// (PowerSave, StaticClock, wrappers, user policies) share a batch,
// mixed in any proportion, and run one govern step (govern): a lane
// node ticks its GovLane, an object node its Governor, and a node
// with no governor skips it. A lane-policy node's governor state is a
// GovLane in the batch's lanes slab and its actuator is three lanes
// (p-state index, transition and failure counts, latency), so such a
// node owns no governor or actuator object at all (see lane.go). A
// tick allocates nothing for governors that allocate nothing
// (TestBatchTickAllocs). A full batch also runs fault injection, the
// thermal model, clock modulation, transition events and stage
// timing, and builds a TickState record on every tick for hook
// fan-out. Both settings reproduce the recorded reference outputs bit
// for bit (internal/kernel's TestBatchMatchesStaged).

// BatchNode binds one node's machine, workload and governor. The
// governor must be a fresh instance (its state is mutated by the run),
// exactly as with NewSession.
//
// A node may instead name a shared LanePolicy and its initial GovLane,
// leaving Governor nil: the node then has no governor object, only its
// lane. A LaneGovernor passed as Governor is bound to its lane the
// same way (see LaneGovernor).
type BatchNode struct {
	Machine  *Machine
	Workload phase.Workload
	Governor Governor
	Policy   LanePolicy
	Lane     GovLane
}

// BatchOptions configures a batch run.
type BatchOptions struct {
	// RetainTraces keeps per-interval trace rows in each node's
	// trace.Run. Off by default: the hot path then writes no rows and
	// the per-node Result carries only run-level totals.
	RetainTraces bool
	// Hooks, when non-nil, returns the observer hooks to subscribe for
	// node i (nil for none). Any hook turns on the full event order
	// for the whole batch.
	Hooks func(i int) []Hook
}

// BatchState holds the tick state of every node in a batch as
// parallel slices, stepped in lockstep by StepNode/StepAll. One
// BatchState is single-coordinator: distinct index ranges may be
// stepped concurrently (the cluster pool shards them), but each node
// index must be stepped by one goroutine at a time with a
// happens-before edge between rounds, as with Session.
type BatchState struct {
	n      int
	retain bool
	full   bool // run the full event order (see the table above)
	timing bool // time stages; set only on a full one-lane batch
	// clock times the stages when timing is on. Only a Session
	// enables timing, so one clock per batch serves its one lane.
	clock stageClock

	// Immutable per-node wiring, fixed at construction.
	truths   []*power.GroundTruth
	govs     []Governor      // nil for pinned and lane-only nodes
	lpol     []LanePolicy    // shared lane policy, nil for other nodes
	latency  []time.Duration // actuator transition latency
	rngs     []*rand.Rand
	injs     []*faults.Injector
	tms      []*thermal.Model
	chains   []sensor.Prepared
	tables   []*pstate.Table
	states   [][]pstate.PState
	freqHz   [][]float64
	behav    [][]phase.Behavior // flat [state*nPhases+phase] cache of Params.At
	phases   [][]phase.Params
	period   []time.Duration
	perSec   []float64 // period[i].Seconds(), cached for full intervals
	jitter   []float64 // workload JitterPct
	maxTicks []int
	repeats  []int32
	policy   []string
	runs     []*trace.Run
	hooks    [][]Hook

	// Hot mutable state, one lane per node. curIdx, trans and failed
	// are the node's p-state actuator; lanes its lane-policy state.
	curIdx    []int32
	lanes     []GovLane
	trans     []int
	failed    []int
	phaseIdx  []int32
	iter      []int32
	tick      []int
	duty      []float64
	remInstr  []float64
	remIdle   []time.Duration
	now       []time.Duration
	pendStall []time.Duration
	instrTot  []float64
	stallTot  []time.Duration
	busyTot   []time.Duration
	lastW     []float64
	seq       []uint64
	exhausted []bool
	done      []bool
	finalized []bool
	errs      []error

	energyTrue []power.Energy
	energyMeas []power.Energy
	// tinfo holds each node's persistent TickInfo: the PMU sample is
	// accumulated in place (never copied), and the constant Table
	// (and, until a full batch's observe stage writes it, Duty=1) is
	// set once, so govern only touches the per-tick fields before
	// handing the record to TickLane or Tick. A faulted node's Sample
	// is the governor-visible one; its true sample is in trueSample.
	tinfo      []TickInfo
	trueSample []counters.Sample // allocated only for batches with faults
}

// behavKey identifies one node's pure-value behavior cache: nodes
// sharing a p-state table and a phase list (fleet runs repeat a few
// workload profiles across 10⁵+ nodes) share one cache instead of
// each carrying its own copy.
type behavKey struct {
	table  *pstate.Table
	phase0 *phase.Params
	n      int
}

// NewBatch validates the nodes and builds a batch ready to step. Each
// node's actuator starts at the machine's start state (or the
// governor's InitialStater choice), and its noise/jitter RNG and fault
// injector are seeded from the machine seed and the workload name, so
// a node's run is the same in any batch and in a Session.
//
// The per-node footprint is kept lean for fleet-scale batches: the
// ~5 KB rand.Rand source is allocated only for nodes that can draw
// from it (workload jitter or chain noise — without either, the
// stream is never consumed, so a nil RNG is bit-identical), and the
// p-state/behavior caches are interned per (table, phase list) so
// homogeneous fleets share them.
func NewBatch(nodes []BatchNode, opts BatchOptions) (*BatchState, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("machine: batch needs at least one node")
	}
	n := len(nodes)
	b := &BatchState{
		n:      n,
		retain: opts.RetainTraces,

		truths:   make([]*power.GroundTruth, n),
		govs:     make([]Governor, n),
		lpol:     make([]LanePolicy, n),
		latency:  make([]time.Duration, n),
		rngs:     make([]*rand.Rand, n),
		injs:     make([]*faults.Injector, n),
		tms:      make([]*thermal.Model, n),
		chains:   make([]sensor.Prepared, n),
		tables:   make([]*pstate.Table, n),
		states:   make([][]pstate.PState, n),
		freqHz:   make([][]float64, n),
		behav:    make([][]phase.Behavior, n),
		phases:   make([][]phase.Params, n),
		period:   make([]time.Duration, n),
		perSec:   make([]float64, n),
		jitter:   make([]float64, n),
		maxTicks: make([]int, n),
		repeats:  make([]int32, n),
		policy:   make([]string, n),
		runs:     make([]*trace.Run, n),
		hooks:    make([][]Hook, n),

		curIdx:    make([]int32, n),
		lanes:     make([]GovLane, n),
		trans:     make([]int, n),
		failed:    make([]int, n),
		phaseIdx:  make([]int32, n),
		iter:      make([]int32, n),
		tick:      make([]int, n),
		duty:      make([]float64, n),
		remInstr:  make([]float64, n),
		remIdle:   make([]time.Duration, n),
		now:       make([]time.Duration, n),
		pendStall: make([]time.Duration, n),
		instrTot:  make([]float64, n),
		stallTot:  make([]time.Duration, n),
		busyTot:   make([]time.Duration, n),
		lastW:     make([]float64, n),
		seq:       make([]uint64, n),
		exhausted: make([]bool, n),
		done:      make([]bool, n),
		finalized: make([]bool, n),
		errs:      make([]error, n),

		energyTrue: make([]power.Energy, n),
		energyMeas: make([]power.Energy, n),
		tinfo:      make([]TickInfo, n),
	}
	// Every node's run header lives in one slab: one allocation, and
	// no per-object size-class rounding at fleet scale.
	runs := make([]trace.Run, n)
	statesCache := make(map[*pstate.Table][]pstate.PState)
	freqCache := make(map[*pstate.Table][]float64)
	behavCache := make(map[behavKey][]phase.Behavior)
	// Phase-label tables, keyed by phase list alone (nil table).
	labelCache := make(map[behavKey]*trace.PhaseLabels)
	// Consecutive lane nodes of one policy starting from one state (a
	// homogeneous fleet) share one name string.
	var (
		namedPol  LanePolicy
		namedLane GovLane
		laneName  string
	)
	for i, node := range nodes {
		m, w, g, lp := node.Machine, node.Workload, node.Governor, node.Policy
		if m == nil {
			return nil, fmt.Errorf("machine: batch node %d has no machine", i)
		}
		if g != nil && lp != nil {
			return nil, fmt.Errorf("machine: batch node %d has both a governor and a lane policy", i)
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		start := m.startIdx
		if is, ok := g.(InitialStater); ok {
			start = is.InitialIndex(start)
		}
		if err := m.table.CheckIndex(start); err != nil {
			return nil, err
		}

		if lg, ok := g.(LaneGovernor); ok {
			lp = lg.Policy()
			lg.BindLane(&b.lanes[i])
		} else if lp != nil {
			b.lanes[i] = node.Lane
		}
		policy := "static"
		switch {
		case lp != nil:
			if lp != namedPol || b.lanes[i] != namedLane {
				namedPol, namedLane = lp, b.lanes[i]
				laneName = lp.LaneName(&b.lanes[i])
			}
			policy = laneName
		case g != nil:
			policy = g.Name()
		}
		if m.thermal != nil {
			tm, err := thermal.New(*m.thermal)
			if err != nil {
				return nil, err
			}
			b.tms[i] = tm
		}
		// The injector draws from its own stream (same seed, separate
		// source), so enabling faults does not perturb noise or jitter.
		seed := m.seed ^ int64(hashName(w.Name))
		if m.faults != nil {
			inj, err := faults.NewInjector(*m.faults, seed)
			if err != nil {
				return nil, err
			}
			b.injs[i] = inj
			if b.trueSample == nil {
				b.trueSample = make([]counters.Sample, n)
			}
		}
		b.truths[i] = m.truth
		b.govs[i] = g
		b.lpol[i] = lp
		b.latency[i] = m.translat
		if w.JitterPct > 0 || m.chain.NoiseStdW > 0 {
			// Only jitter draws and noise draws consume the stream;
			// without either the RNG is dead weight (~5 KB/node at
			// fleet scale) and a nil RNG is bit-identical.
			b.rngs[i] = rand.New(rand.NewSource(seed))
		}
		b.chains[i] = m.chain.Prepare()
		b.tables[i] = m.table
		if sts, ok := statesCache[b.tables[i]]; ok {
			b.states[i] = sts
		} else {
			b.states[i] = m.table.States()
			statesCache[b.tables[i]] = b.states[i]
		}
		b.phases[i] = w.Phases
		b.period[i] = m.period
		b.perSec[i] = m.period.Seconds()
		b.jitter[i] = w.JitterPct
		b.maxTicks[i] = m.maxTicks
		b.repeats[i] = int32(w.Repeats())
		b.policy[i] = policy
		var ph0 *phase.Params
		if len(w.Phases) > 0 {
			ph0 = &w.Phases[0]
		}
		lk := behavKey{phase0: ph0, n: len(w.Phases)}
		labels, ok := labelCache[lk]
		if !ok {
			names := make([]string, len(w.Phases))
			for pi := range w.Phases {
				names[pi] = w.Phases[pi].Name
			}
			labels = trace.NewPhaseLabels(names...)
			labelCache[lk] = labels
		}
		runs[i] = trace.Run{Workload: w.Name, Policy: policy, Phases: labels}
		b.runs[i] = &runs[i]
		if opts.Hooks != nil {
			b.hooks[i] = opts.Hooks(i)
		}
		// Fault injection, a thermal model, observer hooks or a
		// throttling governor need the full event order.
		if _, throttles := g.(Throttler); throttles || b.injs[i] != nil || b.tms[i] != nil || len(b.hooks[i]) > 0 {
			b.full = true
		}

		// Behavior cache: Params.At is pure in (phase, p-state), so the
		// per-tick evaluation can be precomputed without changing a
		// single float bit — and shared across every node
		// with the same table and phase list.
		sts := b.states[i]
		if f, ok := freqCache[b.tables[i]]; ok {
			b.freqHz[i] = f
		} else {
			f = make([]float64, len(sts))
			for si, ps := range sts {
				f[si] = ps.FreqHz()
			}
			b.freqHz[i] = f
			freqCache[b.tables[i]] = f
		}
		bk := behavKey{table: b.tables[i], phase0: ph0, n: len(w.Phases)}
		if bv, ok := behavCache[bk]; ok {
			b.behav[i] = bv
		} else {
			bv = make([]phase.Behavior, len(sts)*len(w.Phases))
			for si, ps := range sts {
				for pi, p := range w.Phases {
					bv[si*len(w.Phases)+pi] = p.At(ps)
				}
			}
			b.behav[i] = bv
			behavCache[bk] = bv
		}

		b.curIdx[i] = int32(start)
		b.duty[i] = 1.0
		// Constant TickInfo fields; the per-tick fields are written in
		// place each interval.
		b.tinfo[i].Table = b.tables[i]
		b.tinfo[i].Duty = 1
		b.loadPhase(i)
	}
	return b, nil
}

// subscribe appends h to node i's hooks and turns on the full event
// order, which fans events out to them.
func (b *BatchState) subscribe(i int, h Hook) {
	b.hooks[i] = append(b.hooks[i], h)
	b.full = true
}

// Kind names the batch's event order for tests and diagnostics:
// "generic" when full, "pm" otherwise.
func (b *BatchState) Kind() string {
	if b.full {
		return "generic"
	}
	return "pm"
}

// Len returns the number of nodes.
func (b *BatchState) Len() int { return b.n }

// loadPhase positions node i at the next runnable phase, wrapping
// repeats, or marks it exhausted.
func (b *BatchState) loadPhase(i int) {
	phs := b.phases[i]
	for {
		if int(b.phaseIdx[i]) >= len(phs) {
			b.phaseIdx[i] = 0
			b.iter[i]++
			if b.iter[i] >= b.repeats[i] {
				b.exhausted[i] = true
				return
			}
		}
		p := &phs[b.phaseIdx[i]]
		if p.Idle() {
			b.remIdle[i] = p.IdleDuration
			if b.remIdle[i] > 0 {
				return
			}
		} else if p.Instructions > 0 {
			b.remInstr[i] = p.Instructions
			return
		}
		b.phaseIdx[i]++
	}
}

// StepNode advances node i by one monitoring interval, reporting
// whether the node was stepped (false once it is done or errored).
func (b *BatchState) StepNode(i int) bool {
	if b.done[i] || b.errs[i] != nil {
		return false
	}
	b.step(i)
	return true
}

// StepAll advances every unfinished node one interval in node order,
// reporting whether any node was stepped.
func (b *BatchState) StepAll() bool {
	active := false
	for i := 0; i < b.n; i++ {
		if b.StepNode(i) {
			active = true
		}
	}
	return active
}

// Run steps all nodes to completion and returns the first error by
// node index, if any.
func (b *BatchState) Run() error {
	for b.StepAll() {
		if err := b.Err(); err != nil {
			return err
		}
	}
	return b.Err()
}

// Done reports whether every node has completed (or errored).
func (b *BatchState) Done() bool {
	for i := 0; i < b.n; i++ {
		if !b.done[i] && b.errs[i] == nil {
			return false
		}
	}
	return true
}

// NodeDone reports whether node i has completed.
func (b *BatchState) NodeDone(i int) bool { return b.done[i] }

// NodeErr returns node i's error, if stepping failed.
func (b *BatchState) NodeErr(i int) error { return b.errs[i] }

// Err returns the first node error by index, or nil.
func (b *BatchState) Err() error {
	for i := 0; i < b.n; i++ {
		if b.errs[i] != nil {
			return b.errs[i]
		}
	}
	return nil
}

// Seq returns the count of recorded intervals of node i. It advances
// exactly once per emitted interval.
func (b *BatchState) Seq(i int) uint64 { return b.seq[i] }

// LastPowerW returns node i's most recent measured power.
func (b *BatchState) LastPowerW(i int) float64 { return b.lastW[i] }

// LastDPC returns the decode rate of node i's most recent
// governor-visible sample.
func (b *BatchState) LastDPC(i int) float64 { return b.tinfo[i].Sample.DPC() }

// Ticks returns the number of intervals node i has executed.
func (b *BatchState) Ticks(i int) int { return b.tick[i] }

// Governor returns node i's governor: nil for a pinned node and for a
// lane-policy node built without a handle (BatchNode.Policy).
func (b *BatchState) Governor(i int) Governor { return b.govs[i] }

// SetLimit changes lane-policy node i's power limit, effective at its
// next tick (GovLane.SetLimit). Like any retargeting it must happen
// between the node's steps.
func (b *BatchState) SetLimit(i int, w float64) { b.lanes[i].SetLimit(w) }

// BudgetDesireW returns the power limit lane-policy node i would need
// to run its top p-state at decode rate dpc (LanePolicy.LaneDesireW),
// or NaN for a node without a lane policy.
func (b *BatchState) BudgetDesireW(i int, dpc float64) float64 {
	p := b.lpol[i]
	if p == nil {
		return math.NaN()
	}
	return p.LaneDesireW(&b.lanes[i], b.tables[i], dpc)
}

// Result finalizes and returns node i's recorded run. Idempotent;
// fires each subscribed hook's OnDone exactly once.
func (b *BatchState) Result(i int) *trace.Run {
	if !b.finalized[i] {
		run := b.runs[i]
		run.Ticks = int(b.seq[i])
		run.Duration = b.now[i]
		run.StallTime = b.stallTot[i]
		run.BusyTime = b.busyTot[i]
		run.EnergyJ = b.energyTrue[i].Joules()
		run.MeasuredEnergyJ = b.energyMeas[i].Joules()
		run.Transitions = b.trans[i]
		run.FailedTransitions = b.failed[i]
		run.Instructions = b.instrTot[i]
		b.finalized[i] = true
		for _, h := range b.hooks[i] {
			h.OnDone(run)
		}
	}
	return b.runs[i]
}
