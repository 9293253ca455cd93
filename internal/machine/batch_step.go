package machine

import (
	"fmt"
	"math"
	"time"

	"aapm/internal/counters"
	"aapm/internal/power"
	"aapm/internal/trace"
)

// step is the tick engine's one step function: it runs one monitoring
// interval of one node in the paper's order — execute → measure →
// observe → govern → actuate — and records it. The batch's full flag
// (batch.go) turns on the parts of the event order most runs lack:
// fault injection, the thermal model, clock modulation, transition
// events, stage timing and the TickState record hooks receive. Each of
// those runs out of line, so a node of a batch without them pays one
// predictable branch per stage. Either way the node runs the same
// float operations in the same order, so it produces the same bits
// (the recorded reference fixture enforces this).
//
// The other liberties are pure-value caches: Params.At per
// (phase, p-state), PState.FreqHz per state, period.Seconds() for
// full intervals, and the spec's steady-interval table (steadyTick).
// The table exists only for a workload without jitter, and the
// execute stage reads an entry only for an interval that is full and
// stall-free (no pending stall, no stopped clock), on a node that is
// not exhausted, in a busy phase that this interval does not finish.
// Each entry was computed by the functions the general path calls,
// on the same inputs.
//
// The one other liberty is a memo, the settled lane: a lane-policy
// node skips the govern stage, keeping cur, on a tick that read a
// steady entry when its lane is settled and the tick's measured power
// has the previous tick's bits. govern settles a lane after a steady
// tick whose TickLane kept cur, noted no event and left the lane's
// bits unchanged; any other lane tick, and every GovLane setter,
// un-settles it. A settled lane was not actuated and a steady tick
// does not advance the phase, so the next steady tick reads the same
// entry: TickLane would see the same sample, p-state, table and power
// over the same lane (LanePolicy's read contract), and return the same.
//
// On a node that coasts (BatchState.coast) a settled tick is
// settledTicks, which applies exactly the lane effects this function
// would, and the deferred ticks of a coast replay through it too, so a
// settled steady tick has one definition. A replay of more than a few
// ticks, and a coast's horizon, come from the stepping goroutine's
// repeat memos (memo.go) when another node of the shape had the same
// inputs.
//
// Anything that would change float bits (reassociating sums,
// replacing divisions with reciprocal multiplies) is off the table.
//
// r is the stepping goroutine's record (Stepper): the execute stage
// accumulates the interval's counter sample in r.info.Sample, the step
// writes the sensor reading and duty into r.info, and the govern stage
// the rest of what the policy reads. Only the sample's decode rate
// outlives the tick, in the node's dpc lane.
func (b *BatchState) step(i int, r *tickRec) {
	sp := &b.specs[b.spec[i]]
	pl := sp.plat
	if int(b.tick[i]) >= pl.maxTicks {
		b.failTicks(i)
		return
	}
	if e := b.settledEntry(i, sp); e != nil {
		b.settledTicks(i, pl, e, 1, &r.memos)
		b.startCoast(i, pl, e, &r.memos)
		return
	}
	b.tick[i]++
	full := b.full
	if b.timing {
		b.clock.start()
	}
	cur := int(b.curIdx[i])
	start := b.now[i]

	// execute
	info := &r.info
	used, busy, stall, instr, jitter, ph, st, ok := b.executeTick(i, cur, &info.Sample)
	if !ok {
		b.dpc[i] = 0 // the decode rate of the interval's empty sample
		b.flags[i] |= nodeDone
		return
	}
	b.mark(StageExecute)

	// measure: ground truth, the chain's reading, fault corruption of
	// what the governor sees, and both energy integrals. Dropped
	// acquisitions (NaN) contribute no measured energy. A steady
	// interval (st) carries its true power and its sample's decode
	// rate; a faulted sample's decode rate is the corrupted one's.
	var trueW float64
	if st != nil {
		trueW = st.trueW
	} else {
		trueW = intervalPower(pl.truth, cur, &info.Sample, busy, used)
	}
	meaW := pl.chain.Measure(trueW, b.rng(i))
	if full && b.injs != nil && b.injs[i] != nil {
		meaW = b.injectFaults(i, r, start+used, meaW)
		st = nil
	}
	if st != nil {
		b.dpc[i] = st.dpc
	} else {
		b.dpc[i] = info.Sample.DPC()
	}
	usedSec := pl.perSec
	if used != pl.period {
		usedSec = used.Seconds()
	}
	b.energyTrue[i].Add(trueW, usedSec)
	if !math.IsNaN(meaW) {
		b.energyMeas[i].Add(meaW, usedSec)
	}
	b.mark(StageMeasure)
	info.TempC, info.Duty = 0, b.dutyOf(i)
	if full {
		b.observe(i, info, trueW, used)
	}

	b.now[i] = start + used
	skip := st != nil && b.repeats(i, meaW)
	b.lastW[i] = meaW
	b.seq[i]++
	want := cur
	if b.flags[i]&nodeExhausted != 0 {
		b.flags[i] |= nodeDone
	} else {
		if skip {
			// A settled lane on a steady tick that read the previous
			// tick's power: the policy's inputs and lane hold the bits
			// of a call that kept cur, noted nothing and changed
			// nothing, so it would again. want stays cur.
		} else {
			want = b.govern(i, info, sp, cur, used, meaW, st != nil)
		}
		b.mark(StageGovern)
		if want != cur && !b.actuate(i, sp, cur, want) {
			return
		}
		if full {
			b.modulate(i)
		}
	}
	b.emitRow(i, info, start, used, cur, trueW, meaW, instr, ph)
	if full {
		b.emitRecord(i, r, cur, want, used, busy, stall, instr, jitter, trueW, ph)
	}
}

// coast is one node's coast (see BatchState.coast): the settled ticks
// it has deferred and the most it may defer.
type coast struct{ deferred, horizon uint16 }

// coast takes up to n of node i's ticks as coast ticks, as many as its
// coast goes on for, and returns the coast ticks left after those n. A
// negative count -m means the coast ended m ticks short of n: it took
// the first n-m, and the other m are still to step. So coast(i, 1) >= 0
// is a tick taken as a coast tick, and coast(i, 0) reads how many more
// ticks the coast goes on for (0 for a node that does not coast).
//
// A coast starts after a settled tick in the lean order (settledEntry):
// the batch is not full and retains no rows, and the node draws from
// no random stream. Such a tick repeats the previous one's entry,
// reading and lane effects, so every later tick repeats it too while
// the node's lane stays settled, the batch stays lean and the steady
// guard holds, which last is the horizon startCoast computes. A coast
// tick adds to the deferred count and nothing else. flush replays the
// deferred ticks through settledTicks before the node's next regular
// step, when a caller passes over the node (Stepper.EndCoast) and
// before Result reads them; Seq and Ticks add them in without
// replaying.
func (b *BatchState) coast(i, n int) int {
	c := &b.coasts[i]
	left := 0
	if b.lanes[i].settled && !b.full {
		left = int(c.horizon) - int(c.deferred)
	}
	c.deferred += uint16(min(left, n))
	return left - n
}

// settledEntry returns the steady entry node i's next tick reads when
// that tick is a settled one in the lean order, or nil: the batch is
// neither full nor retaining (so it has no clock modulation), the
// node draws from no stream, its lane is settled, the interval passes
// executeTick's steady guard with no pending stall, and the chain
// reads the previous tick's power from the entry.
func (b *BatchState) settledEntry(i int, sp *nodeSpec) *steadyTick {
	if b.full || b.retain || b.rng(i) != nil || b.pendStall[i] != 0 {
		return nil
	}
	e := b.steadyEntry(i, int(b.curIdx[i]), sp)
	if e == nil || !b.repeats(i, sp.plat.chain.Measure(e.trueW, nil)) {
		return nil
	}
	return e
}

// steadyEntry returns the steady entry a full, stall-free interval of
// node i at p-state cur reads, or nil when the general path must run:
// the spec has no table, the node is exhausted, or the phase is idle
// or ends within the interval.
func (b *BatchState) steadyEntry(i, cur int, sp *nodeSpec) *steadyTick {
	if sp.steady == nil || b.flags[i]&nodeExhausted != 0 {
		return nil
	}
	e := &sp.steady[cur*len(sp.phases)+int(b.phaseIdx[i])]
	if !e.busy || !(e.instr < b.remInstr[i]) {
		return nil
	}
	return e
}

// repeats reports whether a steady tick of node i measuring meaW may
// skip the govern stage: its lane is settled and meaW has the bits of
// the previous tick's reading.
func (b *BatchState) repeats(i int, meaW float64) bool {
	return b.lanes[i].settled && math.Float64bits(meaW) == math.Float64bits(b.lastW[i])
}

// settledTicks applies k settled ticks of node i that read steady
// entry e: the lane effects of step's execute, measure and record
// stages on that entry with the govern stage skipped, as the settled
// skip leaves them. Each float lane adds one tick's term k times, in
// tick order (replayTicks, through m's table), so k ticks here leave
// the bits k steps would. The energy terms are the products step's
// Energy.Add computes (power.Joules), each computed once: Add's guards
// act through them, a skipped contribution being +0, which leaves an
// energy sum's bits alone.
func (b *BatchState) settledTicks(i int, pl *platform, e *steadyTick, k int, m *memos) {
	jt, jm := power.Joules(e.trueW, pl.perSec), power.Joules(b.lastW[i], pl.perSec)
	l := m.replay(replayLanes{b.remInstr[i], b.instrTot[i], b.energyTrue[i], b.energyMeas[i]}, e.instr, jt, jm, k)
	b.remInstr[i], b.instrTot[i] = l.rem, l.instr
	b.energyTrue[i], b.energyMeas[i] = l.et, l.em
	d := time.Duration(k) * pl.period
	b.busyTot[i] += d
	b.now[i] += d
	b.tick[i] += int32(k)
	b.seq[i] += uint64(k)
	b.dpc[i] = e.dpc
}

// startCoast starts node i's coast after a settled tick that read e,
// with coastHorizon's horizon, through m's table. It is capped so that
// the tick that trips the machine's tick bound is a regular step, and
// by the counter's width.
func (b *BatchState) startCoast(i int, pl *platform, e *steadyTick, m *memos) {
	most := min(pl.maxTicks-int(b.tick[i]), math.MaxUint16)
	b.coasts[i] = coast{horizon: uint16(m.horizon(b.remInstr[i], e.instr, most))}
}

// coastHorizon counts the later ticks whose steady guard holds, up to
// most: how often the replay's rem -= instr runs under the guard's
// exact instr < rem, walking the subtractions as the replay rounds
// them. The nodes of one workload shape walk the same inputs, so the
// walk runs behind a memo (memos.horizon).
func coastHorizon(rem, instr float64, most int) int {
	h := 0
	for ; h < most && instr < rem; h++ {
		rem -= instr
	}
	return h
}

// flush replays node i's deferred coast ticks, through m's table, and
// ends its coast.
func (b *BatchState) flush(i int, m *memos) {
	c := &b.coasts[i]
	if *c == (coast{}) {
		return
	}
	if c.deferred > 0 {
		sp := &b.specs[b.spec[i]]
		e := &sp.steady[int(b.curIdx[i])*len(sp.phases)+int(b.phaseIdx[i])]
		b.settledTicks(i, sp.plat, e, int(c.deferred), m)
	}
	*c = coast{}
}

// failTicks records the tick-bound error for node i.
func (b *BatchState) failTicks(i int) {
	run := &b.runs[i]
	b.fail(i, fmt.Errorf("machine: run %s/%s exceeded %d ticks",
		run.Workload, run.Policy, b.specs[b.spec[i]].plat.maxTicks))
}

// advancePhase moves node i past its current phase.
func (b *BatchState) advancePhase(i int) {
	b.phaseIdx[i]++
	b.loadPhase(i)
}

// executeTick is the execute stage: draw the interval's intensity
// jitter, charge pending stall and the stopped fraction of a modulated
// clock, then walk phases accumulating cycles, instructions and
// counter activity into sample, and the interval's stall and busy time
// into the run totals. ph is the Row.Phase label of the last phase the
// interval ran: 1 + its index, or 0 if it ran none. ok is false when
// the workload was already exhausted (zero-length interval, nothing
// charged).
//
// A full, stall-free interval that stays inside one busy phase of a
// workload without jitter is a steady one: executeTick copies its
// sample from the spec's steady table and returns the entry as st,
// nil otherwise. The copy keeps the shared table out of reach of the
// fault stage, which corrupts the sample in place.
func (b *BatchState) executeTick(i, cur int, sample *counters.Sample) (used, busy, stall time.Duration, instr, jitter float64, ph uint32, st *steadyTick, ok bool) {
	sp := &b.specs[b.spec[i]]
	pl := sp.plat
	jitter = 1.0
	if sp.jitter > 0 {
		jitter = jitterFactor(sp.jitter, b.rngs[i].NormFloat64())
	}
	interval := pl.period
	stall = b.pendStall[i]
	if stall > interval {
		stall = interval
	}
	b.pendStall[i] -= stall
	if duty := b.dutyOf(i); duty < 1 {
		stall += time.Duration(float64(interval-stall) * (1 - duty))
	}
	remaining := interval - stall

	phs := sp.phases
	nph := len(phs)
	if remaining == interval {
		if e := b.steadyEntry(i, cur, sp); e != nil {
			*sample = e.sample
			b.remInstr[i] -= e.instr
			b.busyTot[i] += interval
			return interval, interval, 0, e.instr, jitter, uint32(b.phaseIdx[i]) + 1, e, true
		}
	}
	freq := pl.freqHz[cur]
	bRow := sp.behav[cur*nph : cur*nph+nph]
	*sample = counters.Sample{}
	zero := true
	for remaining > 0 && b.flags[i]&nodeExhausted == 0 {
		pi := int(b.phaseIdx[i])
		p := &phs[pi]
		ph = uint32(pi) + 1
		if p.Idle() {
			idle := b.remIdle[i]
			if idle > remaining {
				b.remIdle[i] -= remaining
				remaining = 0
				break
			}
			remaining -= idle
			b.remIdle[i] = 0
			b.advancePhase(i)
			continue
		}
		bb := &bRow[pi]
		ipcEff := bb.IPC * jitter
		remSec := remaining.Seconds()
		if remaining == interval {
			remSec = pl.perSec
		}
		cyclesAvail := freq * remSec
		instrPossible := cyclesAvail * ipcEff
		if instrPossible >= b.remInstr[i] {
			// Phase completes within the interval.
			cyclesUsed := b.remInstr[i] / ipcEff
			dt := time.Duration(cyclesUsed / freq * float64(time.Second))
			if dt > remaining {
				dt = remaining
			}
			if zero {
				setActivityP(sample, bb, jitter, cyclesUsed)
				zero = false
			} else {
				addActivityP(sample, bb, jitter, cyclesUsed)
			}
			instr += b.remInstr[i]
			busy += dt
			remaining -= dt
			b.advancePhase(i)
			continue
		}
		if zero {
			setActivityP(sample, bb, jitter, cyclesAvail)
			zero = false
		} else {
			addActivityP(sample, bb, jitter, cyclesAvail)
		}
		instr += instrPossible
		b.remInstr[i] -= instrPossible
		busy += remaining
		remaining = 0
	}
	used = interval - remaining
	ok = used > 0
	b.stallTot[i] += stall
	b.busyTot[i] += busy
	return
}

// injectFaults is the measure stage's fault corruption on a full
// batch: node i's sample in r becomes the one the governor observes
// (the true sample moves to r.trueSample) and the returned measured
// power is what the faulted sensor reports. The injector's events are
// logged at virtual time t.
func (b *BatchState) injectFaults(i int, r *tickRec, t time.Duration, meaW float64) float64 {
	inj := b.injs[i]
	inj.BeginTick()
	s := &r.info.Sample
	r.trueSample = *s
	*s = inj.Counters(*s)
	meaW = inj.Sense(meaW)
	b.drainInjector(i, t)
	return meaW
}

// observe is the observe stage of a full batch: the thermal model
// steps on the interval's true power, and its sensor reading goes in
// info, where the governor, the trace row and the record read it.
func (b *BatchState) observe(i int, info *TickInfo, trueW float64, used time.Duration) {
	if b.tms != nil {
		if tm := b.tms[i]; tm != nil {
			tm.Step(trueW, used)
			info.TempC = tm.SensorC()
		}
	}
	b.mark(StageObserve)
}

// govern is the govern stage. It completes info for node i's interval
// that just ended at p-state cur, asks the node's policy for the next
// p-state — TickLane over the node's GovLane, or its Governor's Tick —
// and logs each degradation the policy noted, stamped at the node's
// virtual time. A node with no governor skips the stage and keeps cur.
// On a steady interval a lane tick settles or un-settles the lane (see
// step); any other lane tick only un-settles it.
func (b *BatchState) govern(i int, info *TickInfo, sp *nodeSpec, cur int, used time.Duration, measuredW float64, steady bool) int {
	// A lane node never reads govs: a fleet's bare lanes leave it nil.
	p := b.lpols[b.pol[i]]
	if p == nil && (b.govs == nil || b.govs[i] == nil) {
		return cur
	}
	pl := sp.plat
	info.Now = b.now[i]
	info.Interval = used
	info.PState = pl.states[cur]
	info.PStateIndex = cur
	info.Table = pl.table
	info.MeasuredPowerW = measuredW
	var (
		want int
		degr []trace.Degradation
	)
	if p != nil {
		st := &b.lanes[i]
		var ev uint8
		if steady {
			prev := *st
			want, ev = p.TickLane(st, info)
			st.settled = want == cur && ev == 0 && st.sameBits(&prev)
		} else {
			st.settled = false
			want, ev = p.TickLane(st, info)
		}
		if ev != 0 {
			degr = p.LaneDegradations(st, ev)
		}
	} else {
		want, degr = b.govs[i].Tick(info)
	}
	for _, d := range degr {
		d.T = b.now[i]
		b.emitDegradation(i, d)
	}
	return want
}

// actuate is the actuate stage's p-state transition: node i's
// actuator moves from cur to want, and the transition's stall is
// charged to upcoming intervals. On a full batch a faulted actuator
// may add stall or abandon the attempt, and the hooks hear the
// outcome. actuate reports false when want is not in the node's table,
// which fails the node.
func (b *BatchState) actuate(i int, sp *nodeSpec, cur, want int) bool {
	pl := sp.plat
	ok, stall := true, time.Duration(0)
	if b.full && b.injs != nil && b.injs[i] != nil {
		ok, stall = b.injs[i].Transition(pl.latency)
		b.drainInjector(i, b.now[i])
	}
	if ok {
		if err := pl.table.CheckIndex(want); err != nil {
			b.fail(i, fmt.Errorf("machine: governor %s: %w", b.runs[i].Policy, err))
			return false
		}
		b.curIdx[i] = int32(want)
		b.trans[i]++
		stall += pl.latency
	} else {
		// Transition abandoned: the actuator stays put and the failed
		// attempt's stall time is still paid.
		b.failed[i]++
	}
	b.pendStall[i] += stall
	if b.full {
		tr := Transition{T: b.now[i], From: cur, To: want, OK: ok, Stall: stall}
		for _, h := range b.hooksOf(i) {
			h.OnTransition(tr)
		}
	}
	return true
}

// modulate is the rest of a full batch's actuate stage: a throttling
// governor sets node i's clock-modulation duty for the next interval.
func (b *BatchState) modulate(i int) {
	// duty exists only when some node's governor throttles.
	if b.duty != nil {
		if th, ok := b.govs[i].(Throttler); ok {
			b.duty[i] = clampDuty(th.Duty())
		}
	}
	b.mark(StageActuate)
}

// mark closes stage on the stage clock when timing is on (only ever
// on a full batch).
func (b *BatchState) mark(stage int) {
	if b.timing {
		b.clock.mark(stage)
	}
}

// emitRow records node i's interval: instruction totals always, the
// trace row only under RetainTraces. The row reads the node's
// governor-visible sample, the sensor reading and the duty from info.
// Rate divisions happen only when a row is kept.
func (b *BatchState) emitRow(i int, info *TickInfo, start, used time.Duration, cur int, trueW, meaW, instr float64, ph uint32) {
	b.instrTot[i] += instr
	if !b.retain {
		return
	}
	s := &info.Sample
	run := &b.runs[i]
	run.Rows = append(run.Rows, trace.Row{
		T:              start,
		Interval:       used,
		FreqMHz:        b.specs[b.spec[i]].plat.states[cur].FreqMHz,
		DPC:            s.DPC(),
		IPC:            s.IPC(),
		DCU:            s.DCU(),
		L2PC:           s.L2PC(),
		MemPC:          s.MemPC(),
		TruePowerW:     trueW,
		MeasuredPowerW: meaW,
		Instructions:   instr,
		Phase:          ph,
		TempC:          info.TempC,
		Duty:           info.Duty,
	})
}

// emitRecord assembles node i's TickState for the interval a full
// batch just recorded and fans it out to the node's hooks in
// subscription order. The record is built on every tick of a full
// batch, hooked or not, so subscribing a hook adds only its own
// dispatch.
func (b *BatchState) emitRecord(i int, r *tickRec, cur, want int, used, busy, stall time.Duration, instr, jitter, trueW float64, ph uint32) {
	pl := b.specs[b.spec[i]].plat
	info := &r.info
	ts := TickState{
		Tick:           int(b.tick[i]),
		Start:          b.now[i] - used,
		Interval:       pl.period,
		Used:           used,
		PState:         pl.states[cur],
		PStateIndex:    cur,
		Duty:           info.Duty,
		Jitter:         jitter,
		Stall:          stall,
		Busy:           busy,
		Instructions:   instr,
		Phase:          b.runs[i].Phases.Name(ph),
		Sample:         info.Sample,
		Observed:       info.Sample,
		TruePowerW:     trueW,
		MeasuredPowerW: b.lastW[i],
		TempC:          info.TempC,
		WantIndex:      want,
		NextDuty:       b.dutyOf(i),
		Final:          b.flags[i]&nodeExhausted != 0,
	}
	if b.injs != nil && b.injs[i] != nil {
		ts.Sample = r.trueSample
	}
	if b.timing {
		ts.StageNanos = b.clock.tick
	}
	for _, h := range b.hooksOf(i) {
		h.OnTick(ts)
	}
}

// emitDegradation records one degradation event in the node's run and
// fans it out to the hooks.
func (b *BatchState) emitDegradation(i int, d trace.Degradation) {
	b.runs[i].AddDegradation(d)
	for _, h := range b.hooksOf(i) {
		h.OnDegradation(d)
	}
}

// drainInjector forwards the fault injector's pending events stamped
// at virtual time t.
func (b *BatchState) drainInjector(i int, t time.Duration) {
	for _, e := range b.injs[i].Drain() {
		b.emitDegradation(i, trace.Degradation{T: t, Source: e.Source, Kind: e.Kind, Detail: e.Detail})
	}
}
