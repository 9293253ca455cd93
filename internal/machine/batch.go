package machine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
// (p-state index, transition and failure counts), so such a
// node owns no governor or actuator object at all (see lane.go). A
// tick allocates nothing for governors that allocate nothing
// (TestBatchTickAllocs). A full batch also runs fault injection, the
// thermal model, clock modulation, transition events and stage
// timing, and builds a TickState record on every tick for hook
// fan-out. Both settings reproduce the recorded reference outputs bit
// for bit (internal/kernel's TestBatchMatchesStaged).
//
// Besides the Params.At behavior, frequency and period caches, each
// node spec of a workload without jitter carries a steady-interval
// table: per (p-state, phase), the sample, instructions, true power
// and decode rate of one full interval inside that busy phase. A tick
// reads its entry, instead of recomputing those values, when the
// interval is full and stall-free, the node is not exhausted, and the
// phase does not finish within the interval; every other stage runs
// as before, except that a lane-policy node whose lane is settled (its
// last steady tick left it at its policy's fixed point) skips the
// govern stage while it reads the same power (see step).
// TestSteadyTickMatchesGeneral steps each batch with and without the
// table, and so with and without the skip, and requires the same bits.
//
// A settled node of a batch that is not full and retains no rows, and
// that draws from no random stream, then coasts: each later tick only
// bumps the node's coast counter, until the steady guard would fail,
// its lane is written, the batch turns full or a reader needs the
// deferred state, and one function replays the deferred ticks in
// order (see BatchState.coast). Seq and Ticks count them without
// replaying; Result replays first. A Session retains rows, so it never coasts.
// TestCoastMatchesGeneral holds the coast to the cleared-table twin.

// StaticPolicy is the policy a run records for a node with neither a
// governor nor a lane policy: it stays at its start p-state.
const StaticPolicy = "static"

// BatchNode binds one node's machine, workload and governor. The
// governor must be a fresh instance (its state is mutated by the run),
// exactly as with NewSession.
//
// A node may instead name a shared LanePolicy and its initial GovLane,
// leaving Governor nil: the node then has no governor object, only its
// lane. A LaneGovernor passed as Governor is bound to its lane the
// same way (see LaneGovernor).
//
// Nodes may share one Machine, which is immutable: SeedOffset gives
// each of them its own noise, jitter and fault streams.
type BatchNode struct {
	Machine  *Machine
	Workload phase.Workload
	Governor Governor
	Policy   LanePolicy
	Lane     GovLane
	// SeedOffset is added to the machine's seed for this node alone.
	// Zero keeps the machine's seed.
	SeedOffset int64
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
// BatchState is single-coordinator: StepNode, StepAll and Run belong
// to one goroutine at a time, and distinct index ranges may be stepped
// concurrently only through one Stepper per goroutine (the cluster
// pool gives each worker one). Each node index must be stepped by one
// goroutine at a time with a happens-before edge between rounds, as
// with Session.
//
// A node owns only its lanes: the mutable tick state below, its run
// header and two 4-byte indices. Everything a node shares with the
// other nodes of its platform and workload shape is one entry of
// specs (which points to the platform's entry of plats), and its lane
// policy is one entry of lpols, so a homogeneous fleet of 10⁵ nodes
// carries a handful of entries instead of 10⁵ copies of its wiring.
// What only the tick that writes it reads — the interval's counter
// sample, and a faulted node's true sample — lives in the stepping
// goroutine's record (tickRec), not in a lane.
type BatchState struct {
	n      int
	retain bool
	full   bool // run the full event order (see the table above)
	timing bool // time stages; set only on a full one-lane batch
	// clock times the stages when timing is on. Only a Session
	// enables timing, so one clock per batch serves its one lane.
	clock stageClock
	// rec is the tick record for StepNode (see Stepper).
	rec tickRec

	// Shared wiring, fixed at construction: node i runs the workload
	// shape specs[spec[i]] on its platform under the lane policy
	// lpols[pol[i]]. lpols[0] is nil, the entry of every node without
	// a lane policy, and consecutive nodes of one policy share an
	// entry.
	spec  []uint32
	specs []nodeSpec
	plats []*platform
	pol   []uint32
	lpols []LanePolicy

	// Optional per-node wiring, allocated only when some node of the
	// batch needs it and nil otherwise.
	govs  []Governor         // nodes with a Governor object
	rngs  []*rand.Rand       // nodes with workload jitter or chain noise
	injs  []*faults.Injector // nodes with a fault plan
	tms   []*thermal.Model   // nodes with a thermal model
	duty  []float64          // clock-modulation duty, when a governor throttles
	hooks [][]Hook           // when observed (BatchOptions.Hooks, Subscribe)

	// runs holds every node's run header in one slab: one allocation,
	// and no per-object size-class rounding at fleet scale.
	runs []trace.Run

	// Hot mutable state, one lane per node. curIdx, trans and failed
	// are the node's p-state actuator; lanes its lane-policy state.
	curIdx    []int32
	lanes     []GovLane
	trans     []int32
	failed    []int32
	phaseIdx  []int32
	iter      []int32
	tick      []int32
	remInstr  []float64
	remIdle   []time.Duration
	now       []time.Duration
	pendStall []time.Duration
	instrTot  []float64
	stallTot  []time.Duration
	busyTot   []time.Duration
	lastW     []float64
	seq       []uint64
	flags     []uint8 // nodeExhausted, nodeDone, nodeFailed, nodeFinalized
	// coasts holds each node's coast: the settled ticks it has
	// deferred and the most it may defer (see BatchState.coast).
	coasts []coast
	// dpc is the decode rate of each node's last governor-visible
	// sample: what LastDPC and a coordinator's demand read between
	// ticks.
	dpc []float64

	energyTrue []power.Energy
	energyMeas []power.Energy

	// errs records the error of each failed node (nodeFailed set).
	// Failures are rare and may happen on concurrent steppers, so the
	// record is sparse and locked.
	errMu sync.Mutex
	errs  map[int]error
}

// Node flag bits, one byte per node.
const (
	nodeExhausted uint8 = 1 << iota // the workload has no phase left
	nodeDone                        // the run completed
	nodeFailed                      // stepping failed; the error is in errs
	nodeFinalized                   // Result has filled in the run totals
)

// tickRec is one stepping goroutine's record of the interval it is
// stepping. The execute stage accumulates the interval's counter
// sample into info.Sample in place, the measure stage corrupts it
// there on a faulted node (keeping the true sample in trueSample), and
// the govern stage completes info for the policy. Nothing in it
// outlives the tick.
type tickRec struct {
	info       TickInfo
	trueSample counters.Sample
	// memos are the goroutine's repeat memos (memo.go), which coast
	// replays, horizons and Stepper.Fold go through.
	memos memos
}

// platform is what the nodes on machines of one configuration share:
// a Machine without its seed, plus the per-state caches the tick
// reads. Distinct machines of one Config share an entry.
type platform struct {
	truth    *power.GroundTruth
	table    *pstate.Table
	states   []pstate.PState
	freqHz   []float64 // states[s].FreqHz()
	chain    sensor.Prepared
	latency  time.Duration // actuator transition latency
	period   time.Duration
	perSec   float64 // period.Seconds(), cached for full intervals
	maxTicks int
}

// platKey keys plats by the Machine fields a platform holds. The
// seed, start state, thermal and fault configuration act per node at
// construction, so they do not split an entry.
type platKey struct {
	truth           *power.GroundTruth
	chain           sensor.Chain
	latency, period time.Duration
	maxTicks        int
}

// nodeSpec is what the nodes of one platform and workload shape
// share.
type nodeSpec struct {
	plat   *platform
	phases []phase.Params
	behav  []phase.Behavior // flat [state*nPhases+phase] cache of Params.At
	// steady is the flat [state*nPhases+phase] table of steady
	// intervals, nil for a workload with jitter (see steadyTick).
	steady  []steadyTick
	labels  *trace.PhaseLabels
	jitter  float64 // workload JitterPct
	repeats int32
}

// steadyTick is what one full, stall-free interval computes inside
// one busy phase at one p-state when the workload has no jitter: the
// same bits on every such interval, so the execute and measure stages
// read them instead of recomputing them. busy is false for an idle
// phase, whose entry is empty.
type steadyTick struct {
	sample counters.Sample
	instr  float64 // instructions retired
	trueW  float64 // intervalPower of sample over the full interval
	dpc    float64 // sample.DPC()
	busy   bool
}

// specKey keys specs. A workload shape is its phase list (the first
// element's address and the length) with its jitter and repeat count.
type specKey struct {
	plat    *platform
	phase0  *phase.Params
	nph     int
	jitter  float64
	repeats int32
}

// Stepper steps nodes of one batch from one goroutine. The execute
// and govern stages assemble the sample and the TickInfo a policy
// reads in the stepper's one record rather than in per-node lanes, so
// goroutines that step disjoint nodes of a batch concurrently each
// need a Stepper of their own. StepNode, StepAll and Run step through
// the batch's own record.
type Stepper struct {
	b   *BatchState
	rec tickRec
}

// NewStepper returns a Stepper over b.
func (b *BatchState) NewStepper() Stepper { return Stepper{b: b} }

// Step is StepNode through the stepper's own record.
func (s *Stepper) Step(i int) bool { return s.b.stepNode(i, &s.rec) }

// Coast takes up to n of node i's ticks as coast ticks and returns the
// coast ticks left after them, negative when the coast ended short of
// n (see BatchState.coast); Step would take the same ticks. Coast(i, 1)
// < 0 is a tick for StepRegular, and Coast(i, 0) reads how long the
// coast goes on. A caller that visits the node every tick and one that
// passes over it while its coast lasts, then hands it every tick it
// passed over, make the same call. A caller that keeps per-interval
// state of its own reads Seq to learn how many intervals the coast
// ticks added.
func (s *Stepper) Coast(i, n int) int { return s.b.coast(i, n) }

// StepRegular is Step without the coast: it replays node i's deferred
// ticks and steps it. Step does the same when Coast(i, 1) is negative.
func (s *Stepper) StepRegular(i int) bool { return s.b.stepRegular(i, &s.rec) }

// EndCoast replays node i's deferred ticks and ends its coast, for a
// caller that passes over the node's tick: its next tick is a regular
// step.
func (s *Stepper) EndCoast(i int) { s.b.flush(i, &s.rec.memos) }

// Fold adds w to sumW and dpc to sumDPC d times each, in order, and
// returns the sums: a coordinator's fold of d intervals that repeat one
// reading into its epoch sums, through the stepper's memo.
func (s *Stepper) Fold(sumW, sumDPC, w, dpc float64, d int) (float64, float64) {
	return s.rec.memos.fold(sumW, sumDPC, w, dpc, d)
}

// NewBatch builds a batch over nodes (NewBatchFunc reading the slice).
func NewBatch(nodes []BatchNode, opts BatchOptions) (*BatchState, error) {
	return NewBatchFunc(len(nodes), func(i int) (BatchNode, error) { return nodes[i], nil }, opts)
}

// NewBatchFunc validates n nodes and builds a batch ready to step,
// reading node i from node(i) once, in index order; an error from
// node fails the build with that error, and an invalid workload with
// its Validate error wrapped with the node's index. Each node's
// actuator starts at the machine's start state (or the governor's
// InitialStater choice), and its noise/jitter RNG and fault injector
// are seeded from the machine seed plus the node's SeedOffset, XORed
// with the workload name's hash, so a node's run is the same in any
// batch and in a Session.
//
// The per-node footprint is kept lean for fleet-scale batches: no
// BatchNode outlives its iteration, a node holds an index into the
// shared wiring, and the optional slices and the ~5 KB rand.Rand
// source exist only for nodes that use them (a node without workload
// jitter or chain noise never draws from its stream, so a nil RNG is
// bit-identical).
func NewBatchFunc(n int, node func(i int) (BatchNode, error), opts BatchOptions) (*BatchState, error) {
	if n <= 0 {
		return nil, fmt.Errorf("machine: batch needs at least one node")
	}
	b := &BatchState{
		n:      n,
		retain: opts.RetainTraces,
		spec:   make([]uint32, n),
		pol:    make([]uint32, n),
		lpols:  []LanePolicy{nil},
		runs:   make([]trace.Run, n),

		curIdx:    make([]int32, n),
		lanes:     make([]GovLane, n),
		trans:     make([]int32, n),
		failed:    make([]int32, n),
		phaseIdx:  make([]int32, n),
		iter:      make([]int32, n),
		tick:      make([]int32, n),
		remInstr:  make([]float64, n),
		remIdle:   make([]time.Duration, n),
		now:       make([]time.Duration, n),
		pendStall: make([]time.Duration, n),
		instrTot:  make([]float64, n),
		stallTot:  make([]time.Duration, n),
		busyTot:   make([]time.Duration, n),
		lastW:     make([]float64, n),
		seq:       make([]uint64, n),
		flags:     make([]uint8, n),
		coasts:    make([]coast, n),
		dpc:       make([]float64, n),

		energyTrue: make([]power.Energy, n),
		energyMeas: make([]power.Energy, n),
	}
	if opts.Hooks != nil {
		b.hooks = make([][]Hook, n)
	}
	platIdx := make(map[platKey]*platform)
	specIdx := make(map[specKey]uint32)
	laneNames := make(map[laneNameKey]string)
	// hashes[si] is the name hash of the last node of spec si, so the
	// nodes of one workload hash its name once even when workloads
	// interleave.
	type nameHash struct {
		name string
		hash uint32
	}
	var hashes []nameHash
	// Consecutive nodes of one machine share its platform lookup, and
	// of one lane name class and starting lane their name string (a
	// homogeneous fleet looks each up once).
	var (
		lastM     *Machine
		plat      *platform
		lastNK    laneNameKey
		laneName  string
		throttles bool
	)
	for i := 0; i < n; i++ {
		nd, err := node(i)
		if err != nil {
			return nil, err
		}
		m, w, g, lp := nd.Machine, nd.Workload, nd.Governor, nd.Policy
		if m == nil {
			return nil, fmt.Errorf("machine: batch node %d has no machine", i)
		}
		if g != nil && lp != nil {
			return nil, fmt.Errorf("machine: batch node %d has both a governor and a lane policy", i)
		}
		if m != lastM {
			lastM = m
			pk := platKey{truth: m.truth, chain: m.chain, latency: m.translat, period: m.period, maxTicks: m.maxTicks}
			if plat = platIdx[pk]; plat == nil {
				plat = newPlatform(m)
				platIdx[pk] = plat
				b.plats = append(b.plats, plat)
			}
		}
		// A workload shape is validated once, when its spec entry is
		// made: a later node of that shape differs at most in its name,
		// which only has to be non-empty.
		var ph0 *phase.Params
		if len(w.Phases) > 0 {
			ph0 = &w.Phases[0]
		}
		sk := specKey{plat: plat, phase0: ph0, nph: len(w.Phases), jitter: w.JitterPct, repeats: int32(w.Repeats())}
		si, known := specIdx[sk]
		if !known || w.Name == "" {
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("machine: batch node %d: %w", i, err)
			}
		}
		if !known {
			si = uint32(len(b.specs))
			specIdx[sk] = si
			b.specs = append(b.specs, newSpec(sk, w.Phases))
			hashes = append(hashes, nameHash{})
		}
		b.spec[i] = si

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
			b.lanes[i] = nd.Lane
		}
		// A lane copied from a handle another batch stepped keeps no
		// memo of that batch's ticks.
		b.lanes[i].settled = false
		policy := StaticPolicy
		switch {
		case lp != nil:
			// laneName is empty until the first lane node names it.
			if nk := laneNameKeyOf(lp, &b.lanes[i]); nk != lastNK || laneName == "" {
				lastNK = nk
				var ok bool
				if laneName, ok = laneNames[nk]; !ok {
					laneName = lp.LaneName(&b.lanes[i])
					laneNames[nk] = laneName
				}
			}
			policy = laneName
		case g != nil:
			policy = g.Name()
		}
		if g != nil {
			if b.govs == nil {
				b.govs = make([]Governor, n)
			}
			b.govs[i] = g
		}
		if m.thermal != nil {
			tm, err := thermal.New(*m.thermal)
			if err != nil {
				return nil, err
			}
			if b.tms == nil {
				b.tms = make([]*thermal.Model, n)
			}
			b.tms[i] = tm
		}
		// The injector draws from its own stream (same seed, separate
		// source), so enabling faults does not perturb noise or jitter.
		if h := &hashes[si]; w.Name != h.name {
			h.name, h.hash = w.Name, hashName(w.Name)
		}
		seed := (m.seed + nd.SeedOffset) ^ int64(hashes[si].hash)
		if m.faults != nil {
			inj, err := faults.NewInjector(*m.faults, seed)
			if err != nil {
				return nil, err
			}
			if b.injs == nil {
				b.injs = make([]*faults.Injector, n)
			}
			b.injs[i] = inj
		}
		if w.JitterPct > 0 || m.chain.NoiseStdW > 0 {
			// Only jitter draws and noise draws consume the stream;
			// without either the RNG is dead weight (~5 KB/node at
			// fleet scale) and a nil RNG is bit-identical.
			if b.rngs == nil {
				b.rngs = make([]*rand.Rand, n)
			}
			b.rngs[i] = rand.New(rand.NewSource(seed))
		}

		if lp != nil {
			if lp != b.lpols[len(b.lpols)-1] {
				b.lpols = append(b.lpols, lp)
			}
			b.pol[i] = uint32(len(b.lpols) - 1)
		}
		b.runs[i] = trace.Run{Workload: w.Name, Policy: policy, Phases: b.specs[si].labels}
		if opts.Hooks != nil {
			b.hooks[i] = opts.Hooks(i)
		}
		// Fault injection, a thermal model, observer hooks or a
		// throttling governor need the full event order.
		_, th := g.(Throttler)
		throttles = throttles || th
		if th || m.faults != nil || m.thermal != nil || len(b.hooksOf(i)) > 0 {
			b.full = true
		}

		b.curIdx[i] = int32(start)
		b.loadPhase(i)
	}
	if throttles {
		b.duty = make([]float64, n)
		for i := range b.duty {
			b.duty[i] = 1
		}
	}
	return b, nil
}

// laneNameKey keys the lane names NewBatchFunc formats: a policy's
// name class and the bits of the lane it names (bits, so that lanes
// that compare equal but format differently, such as -0 and +0
// limits, get names of their own).
type laneNameKey struct {
	class            string
	limit, corr, dpc uint64
	pendingUp        int32
	flags            uint8
}

// laneNameKeyOf returns the name key of lane st under policy p.
func laneNameKeyOf(p LanePolicy, st *GovLane) laneNameKey {
	return laneNameKey{
		class:     p.NameClass(),
		limit:     math.Float64bits(st.LimitW),
		corr:      math.Float64bits(st.Corr),
		dpc:       math.Float64bits(st.DPC),
		pendingUp: st.PendingUp,
		flags:     st.Flags,
	}
}

// newPlatform builds m's platform entry.
func newPlatform(m *Machine) *platform {
	states := m.table.States()
	freqHz := make([]float64, len(states))
	for si, ps := range states {
		freqHz[si] = ps.FreqHz()
	}
	return &platform{
		truth:    m.truth,
		table:    m.table,
		states:   states,
		freqHz:   freqHz,
		chain:    m.chain.Prepare(),
		latency:  m.translat,
		period:   m.period,
		perSec:   m.period.Seconds(),
		maxTicks: m.maxTicks,
	}
}

// newSpec builds the spec entry for key k over the phase list phs.
func newSpec(k specKey, phs []phase.Params) nodeSpec {
	names := make([]string, len(phs))
	for pi := range phs {
		names[pi] = phs[pi].Name
	}
	// Behavior cache: Params.At is pure in (phase, p-state), so the
	// per-tick evaluation can be precomputed without changing a single
	// float bit.
	sts := k.plat.states
	bv := make([]phase.Behavior, len(sts)*len(phs))
	for si, ps := range sts {
		for pi, p := range phs {
			bv[si*len(phs)+pi] = p.At(ps)
		}
	}
	return nodeSpec{
		plat:    k.plat,
		phases:  phs,
		behav:   bv,
		steady:  newSteady(k, phs, bv),
		labels:  trace.NewPhaseLabels(names...),
		jitter:  k.jitter,
		repeats: k.repeats,
	}
}

// newSteady builds the steady-interval table of a workload without
// jitter over the phase list phs and its behavior cache bv, or returns
// nil when the workload has jitter. Each busy phase's entry runs the
// arithmetic of executeTick's uncompleted-phase branch and of step's
// measure stage on a full interval with jitter 1.0, through the same
// functions, so an entry holds exactly the bits the general path
// computes.
func newSteady(k specKey, phs []phase.Params, bv []phase.Behavior) []steadyTick {
	if k.jitter != 0 {
		return nil
	}
	pl := k.plat
	st := make([]steadyTick, len(bv))
	for si := range pl.states {
		cycles := pl.freqHz[si] * pl.perSec
		for pi := range phs {
			if phs[pi].Idle() {
				continue
			}
			e, bb := &st[si*len(phs)+pi], &bv[si*len(phs)+pi]
			const jitter = 1.0
			setActivityP(&e.sample, bb, jitter, cycles)
			e.instr = cycles * (bb.IPC * jitter)
			e.trueW = intervalPower(pl.truth, si, &e.sample, pl.period, pl.period)
			e.dpc = e.sample.DPC()
			e.busy = true
		}
	}
	return st
}

// subscribe appends h to node i's hooks and turns on the full event
// order, which fans events out to them.
func (b *BatchState) subscribe(i int, h Hook) {
	if b.hooks == nil {
		b.hooks = make([][]Hook, b.n)
	}
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
	sp := &b.specs[b.spec[i]]
	phs := sp.phases
	for {
		if int(b.phaseIdx[i]) >= len(phs) {
			b.phaseIdx[i] = 0
			b.iter[i]++
			if b.iter[i] >= sp.repeats {
				b.flags[i] |= nodeExhausted
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
func (b *BatchState) StepNode(i int) bool { return b.stepNode(i, &b.rec) }

// stepNode is StepNode with r as the tick's record: a coast tick when
// node i's coast goes on, else the deferred ticks' replay and a step.
func (b *BatchState) stepNode(i int, r *tickRec) bool {
	return b.coast(i, 1) >= 0 || b.stepRegular(i, r)
}

// stepRegular is stepNode without the coast tick.
func (b *BatchState) stepRegular(i int, r *tickRec) bool {
	if b.flags[i]&(nodeDone|nodeFailed) != 0 {
		return false
	}
	b.flush(i, &r.memos)
	b.step(i, r)
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
	for _, f := range b.flags {
		if f&(nodeDone|nodeFailed) == 0 {
			return false
		}
	}
	return true
}

// NodeDone reports whether node i has completed.
func (b *BatchState) NodeDone(i int) bool { return b.flags[i]&nodeDone != 0 }

// NodeErr returns node i's error, if stepping failed. The flag check
// inlines into a stepping loop; only a failed node takes the lock.
func (b *BatchState) NodeErr(i int) error {
	if b.flags[i]&nodeFailed == 0 {
		return nil
	}
	return b.nodeErr(i)
}

// nodeErr looks up failed node i's error under the lock.
func (b *BatchState) nodeErr(i int) error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.errs[i]
}

// Err returns the first node error by index, or nil. Run calls it
// after every round, so it scans the flags and takes the lock only
// for a failed node.
func (b *BatchState) Err() error {
	for i, f := range b.flags {
		if f&nodeFailed != 0 {
			return b.NodeErr(i)
		}
	}
	return nil
}

// fail records err as node i's error, which ends its run.
func (b *BatchState) fail(i int, err error) {
	b.errMu.Lock()
	if b.errs == nil {
		b.errs = make(map[int]error)
	}
	b.errs[i] = err
	b.errMu.Unlock()
	b.flags[i] |= nodeFailed
}

// Seq returns the count of recorded intervals of node i. It advances
// exactly once per emitted interval, coast ticks included.
func (b *BatchState) Seq(i int) uint64 { return b.seq[i] + uint64(b.coasts[i].deferred) }

// LastPowerW returns node i's most recent measured power.
func (b *BatchState) LastPowerW(i int) float64 { return b.lastW[i] }

// LastDPC returns the decode rate of node i's most recent
// governor-visible sample.
func (b *BatchState) LastDPC(i int) float64 { return b.dpc[i] }

// Ticks returns the number of intervals node i has executed, coast
// ticks included.
func (b *BatchState) Ticks(i int) int { return int(b.tick[i]) + int(b.coasts[i].deferred) }

// Governor returns node i's governor: nil for a pinned node and for a
// lane-policy node built without a handle (BatchNode.Policy).
func (b *BatchState) Governor(i int) Governor {
	if b.govs == nil {
		return nil
	}
	return b.govs[i]
}

// SetLimit changes lane-policy node i's power limit, effective at its
// next tick (GovLane.SetLimit). Like any retargeting it must happen
// between the node's steps.
func (b *BatchState) SetLimit(i int, w float64) { b.lanes[i].SetLimit(w) }

// BudgetDesireW returns the power limit lane-policy node i would need
// to run its top p-state at decode rate dpc (LanePolicy.LaneDesireW),
// or NaN for a node without a lane policy.
func (b *BatchState) BudgetDesireW(i int, dpc float64) float64 {
	p := b.lpols[b.pol[i]]
	if p == nil {
		return math.NaN()
	}
	return p.LaneDesireW(&b.lanes[i], b.specs[b.spec[i]].plat.table, dpc)
}

// Result finalizes and returns node i's recorded run. Idempotent;
// fires each subscribed hook's OnDone exactly once.
func (b *BatchState) Result(i int) *trace.Run {
	run := &b.runs[i]
	if b.flags[i]&nodeFinalized == 0 {
		b.flush(i, &b.rec.memos)
		run.Ticks = int(b.seq[i])
		run.Duration = b.now[i]
		run.StallTime = b.stallTot[i]
		run.BusyTime = b.busyTot[i]
		run.EnergyJ = b.energyTrue[i].Joules()
		run.MeasuredEnergyJ = b.energyMeas[i].Joules()
		run.Transitions = int(b.trans[i])
		run.FailedTransitions = int(b.failed[i])
		run.Instructions = b.instrTot[i]
		b.flags[i] |= nodeFinalized
		for _, h := range b.hooksOf(i) {
			h.OnDone(run)
		}
	}
	return run
}

// hooksOf returns node i's hooks.
func (b *BatchState) hooksOf(i int) []Hook {
	if b.hooks == nil {
		return nil
	}
	return b.hooks[i]
}

// rng returns node i's noise and jitter stream, nil when it draws
// from none.
func (b *BatchState) rng(i int) *rand.Rand {
	if b.rngs == nil {
		return nil
	}
	return b.rngs[i]
}

// dutyOf returns the clock-modulation duty node i's next interval
// runs at.
func (b *BatchState) dutyOf(i int) float64 {
	if b.duty == nil {
		return 1
	}
	return b.duty[i]
}
