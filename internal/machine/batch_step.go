package machine

import (
	"fmt"
	"math"
	"time"

	"aapm/internal/counters"
	"aapm/internal/trace"
)

// The step bodies in this file run one monitoring interval in the
// paper's order — execute → measure → observe → govern → actuate. The
// pm body sheds what its batch provably lacks (faults, thermal model,
// hooks, throttling) but keeps the generic body's float operations in
// the same order, and both call the same govern step, so both bodies
// produce the same bits.
// The only other liberties are pure-value caches: Params.At per
// (phase, p-state), PState.FreqHz per state, and period.Seconds() for
// full intervals. Anything that would change float bits (reassociating
// sums, replacing divisions with reciprocal multiplies) is off the
// table; the recorded reference fixture enforces this.

// failTicks records the tick-bound error for node i.
func (b *BatchState) failTicks(i int) {
	b.errs[i] = fmt.Errorf("machine: run %s/%s exceeded %d ticks",
		b.runs[i].Workload, b.policy[i], b.maxTicks[i])
}

// advancePhase moves node i past its current phase.
func (b *BatchState) advancePhase(i int) {
	b.phaseIdx[i]++
	b.loadPhase(i)
}

// executeTick is the execute stage: draw the interval's intensity
// jitter, charge pending stall and the stopped fraction of a modulated
// clock, then walk phases accumulating cycles, instructions and
// counter activity into the node's sample lane, and the interval's
// stall and busy time into the run totals. ph is the Row.Phase label
// of the last phase the interval ran: 1 + its index, or 0 if it ran
// none. ok is false when the workload was already exhausted
// (zero-length interval, nothing charged).
func (b *BatchState) executeTick(i, cur int) (used, busy, stall time.Duration, instr, jitter float64, ph uint32, ok bool) {
	jitter = 1.0
	if b.jitter[i] > 0 {
		jitter = jitterFactor(b.jitter[i], b.rngs[i].NormFloat64())
	}
	interval := b.period[i]
	stall = b.pendStall[i]
	if stall > interval {
		stall = interval
	}
	b.pendStall[i] -= stall
	if duty := b.duty[i]; duty < 1 {
		stall += time.Duration(float64(interval-stall) * (1 - duty))
	}
	remaining := interval - stall

	freq := b.freqHz[i][cur]
	phs := b.phases[i]
	nph := len(phs)
	bRow := b.behav[i][cur*nph : cur*nph+nph]
	sample := &b.tinfo[i].Sample
	*sample = counters.Sample{}
	zero := true
	for remaining > 0 && !b.exhausted[i] {
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
			remSec = b.perSec[i]
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

// measureFast is the measure stage on the fault-free path: ground
// truth, the chain's reading, and both energy integrals.
func (b *BatchState) measureFast(i, cur int, used, busy time.Duration) (trueW, meaW float64) {
	trueW = intervalPower(b.truths[i], cur, &b.tinfo[i].Sample, busy, used)
	meaW = b.chains[i].Measure(trueW, b.rngs[i])
	usedSec := used.Seconds()
	if used == b.period[i] {
		usedSec = b.perSec[i]
	}
	b.energyTrue[i].Add(trueW, usedSec)
	if !math.IsNaN(meaW) {
		b.energyMeas[i].Add(meaW, usedSec)
	}
	return
}

// emitFastRow records the interval on the fault-free pm body:
// instruction totals always, the trace row only under RetainTraces.
// Rate divisions happen only when a row is kept.
func (b *BatchState) emitFastRow(i int, start, used time.Duration, cur int, trueW, meaW, instr float64, ph uint32) {
	b.instrTot[i] += instr
	if !b.retain {
		return
	}
	s := &b.tinfo[i].Sample
	run := b.runs[i]
	run.Rows = append(run.Rows, trace.Row{
		T:              start,
		Interval:       used,
		FreqMHz:        b.states[i][cur].FreqMHz,
		DPC:            s.DPC(),
		IPC:            s.IPC(),
		DCU:            s.DCU(),
		L2PC:           s.L2PC(),
		MemPC:          s.MemPC(),
		TruePowerW:     trueW,
		MeasuredPowerW: meaW,
		Instructions:   instr,
		Phase:          ph,
		Duty:           1,
	})
}

// govern is the govern stage of both step bodies. It completes node
// i's persistent TickInfo for the interval that just ended at p-state
// cur, asks the node's policy for the next p-state — TickLane over
// the node's GovLane, or its Governor's Tick — and logs each
// degradation the policy noted, stamped at the node's virtual time. A
// node with no governor skips the stage and keeps cur.
func (b *BatchState) govern(i, cur int, used time.Duration, measuredW float64) int {
	// A lane node never reads govs: a fleet's bare lanes leave that
	// slice cold.
	p := b.lpol[i]
	if p == nil && b.govs[i] == nil {
		return cur
	}
	info := &b.tinfo[i]
	info.Now = b.now[i]
	info.Interval = used
	info.PState = b.states[i][cur]
	info.PStateIndex = cur
	info.MeasuredPowerW = measuredW
	var (
		want int
		degr []trace.Degradation
	)
	if p != nil {
		st := &b.lanes[i]
		var ev uint8
		if want, ev = p.TickLane(st, info); ev != 0 {
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

// stepInPlaceBody steps a node on the fault-free, thermal-free,
// hook-free path, deciding from the node's persistent TickInfo.
func stepInPlaceBody(b *BatchState, i int) {
	if b.tick[i] >= b.maxTicks[i] {
		b.failTicks(i)
		return
	}
	b.tick[i]++
	cur := int(b.curIdx[i])
	start := b.now[i]
	used, busy, _, instr, _, ph, ok := b.executeTick(i, cur)
	if !ok {
		b.done[i] = true
		return
	}
	trueW, meaW := b.measureFast(i, cur, used, busy)
	b.now[i] = start + used
	b.lastW[i] = meaW
	b.seq[i]++
	if b.exhausted[i] {
		b.done[i] = true
	} else if want := b.govern(i, cur, used, meaW); want != cur {
		d, err := b.setPState(i, want)
		if err != nil {
			b.errs[i] = fmt.Errorf("machine: governor %s: %w", b.policy[i], err)
			return
		}
		b.pendStall[i] += d
	}
	b.emitFastRow(i, start, used, cur, trueW, meaW, instr, ph)
}

// emitTick records the generic body's interval — the trace row under
// RetainTraces, labelled with phase ph, instruction totals always —
// then fans it out to the node's hooks in subscription order.
func (b *BatchState) emitTick(i int, ts *TickState, ph uint32) {
	b.instrTot[i] += ts.Instructions
	if b.retain {
		run := b.runs[i]
		run.Rows = append(run.Rows, trace.Row{
			T:              ts.Start,
			Interval:       ts.Used,
			FreqMHz:        ts.PState.FreqMHz,
			DPC:            ts.Observed.DPC(),
			IPC:            ts.Observed.IPC(),
			DCU:            ts.Observed.DCU(),
			L2PC:           ts.Observed.L2PC(),
			MemPC:          ts.Observed.MemPC(),
			TruePowerW:     ts.TruePowerW,
			MeasuredPowerW: ts.MeasuredPowerW,
			Instructions:   ts.Instructions,
			Phase:          ph,
			TempC:          ts.TempC,
			Duty:           ts.Duty,
		})
	}
	for _, h := range b.hooks[i] {
		h.OnTick(*ts)
	}
}

// emitTransition fans a resolved transition out to node i's hooks.
func (b *BatchState) emitTransition(i int, tr Transition) {
	for _, h := range b.hooks[i] {
		h.OnTransition(tr)
	}
}

// emitDegradation records one degradation event in the node's run and
// fans it out to the hooks.
func (b *BatchState) emitDegradation(i int, d trace.Degradation) {
	b.runs[i].AddDegradation(d)
	for _, h := range b.hooks[i] {
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

// stepGenericBody runs the full tick — fault injection, thermal model,
// throttling governors, stage timing and hook fan-out — against the
// batch state lanes. It is the fallback whenever a node needs anything
// the pm body sheds.
func stepGenericBody(b *BatchState, i int) {
	if b.tick[i] >= b.maxTicks[i] {
		b.failTicks(i)
		return
	}
	b.tick[i]++
	cur := int(b.curIdx[i])
	ts := TickState{
		Tick:        b.tick[i],
		Start:       b.now[i],
		Interval:    b.period[i],
		PState:      b.states[i][cur],
		PStateIndex: cur,
		Duty:        b.duty[i],
		Jitter:      1.0,
	}
	ts.WantIndex = cur
	ts.NextDuty = ts.Duty
	clock := stageClock{enabled: b.timing, total: &b.stageNanos}
	clock.start()

	// execute
	used, busy, stall, instr, jitter, ph, ok := b.executeTick(i, cur)
	if !ok {
		b.done[i] = true
		return
	}
	ts.Used, ts.Busy, ts.Stall = used, busy, stall
	ts.Instructions, ts.Jitter, ts.Phase = instr, jitter, b.runs[i].Phases.Name(ph)
	ts.Sample = b.tinfo[i].Sample
	clock.mark(&ts, StageExecute)

	// measure: ground truth, the chain's reading, fault corruption of
	// what the governor sees, and both energy integrals. Dropped
	// acquisitions (NaN) contribute no measured energy.
	ts.TruePowerW = intervalPower(b.truths[i], cur, &b.tinfo[i].Sample, busy, used)
	ts.MeasuredPowerW = b.chains[i].Measure(ts.TruePowerW, b.rngs[i])
	ts.Observed = ts.Sample
	if inj := b.injs[i]; inj != nil {
		inj.BeginTick()
		ts.Observed = inj.Counters(ts.Sample)
		ts.MeasuredPowerW = inj.Sense(ts.MeasuredPowerW)
		b.obs[i] = ts.Observed
		b.drainInjector(i, ts.Start+used)
	}
	usedSec := used.Seconds()
	if used == b.period[i] {
		usedSec = b.perSec[i]
	}
	b.energyTrue[i].Add(ts.TruePowerW, usedSec)
	if !math.IsNaN(ts.MeasuredPowerW) {
		b.energyMeas[i].Add(ts.MeasuredPowerW, usedSec)
	}
	clock.mark(&ts, StageMeasure)

	// observe: the thermal sensor reading at interval end.
	if tm := b.tms[i]; tm != nil {
		tm.Step(ts.TruePowerW, used)
		ts.TempC = tm.SensorC()
	}
	clock.mark(&ts, StageObserve)

	b.now[i] += used
	b.lastW[i] = ts.MeasuredPowerW
	b.seq[i]++
	if b.exhausted[i] {
		ts.Final = true
		b.done[i] = true
		b.emitTick(i, &ts, ph)
		return
	}

	// govern: the observed sample, sensor reading and duty go in the
	// node's persistent TickInfo, which the rest of this tick does not
	// read (the true sample is already in ts, and LastDPC reads the
	// same observed sample).
	info := &b.tinfo[i]
	info.Sample = ts.Observed
	info.TempC = ts.TempC
	info.Duty = ts.Duty
	ts.WantIndex = b.govern(i, cur, used, ts.MeasuredPowerW)
	clock.mark(&ts, StageGovern)

	// actuate: the p-state transition (possibly through a faulted
	// actuator) with its stall charged to upcoming intervals, then the
	// next interval's clock-modulation duty.
	if ts.WantIndex != cur {
		okT, extra := true, time.Duration(0)
		if inj := b.injs[i]; inj != nil {
			okT, extra = inj.Transition(b.latency[i])
			b.drainInjector(i, b.now[i])
		}
		if okT {
			d, err := b.setPState(i, ts.WantIndex)
			if err != nil {
				b.errs[i] = fmt.Errorf("machine: governor %s: %w", b.policy[i], err)
				return
			}
			b.pendStall[i] += d + extra
			b.emitTransition(i, Transition{T: b.now[i], From: cur, To: ts.WantIndex, OK: true, Stall: d + extra})
		} else {
			// Transition abandoned: the actuator stays put and the
			// failed attempt's stall time is still paid.
			b.failed[i]++
			b.pendStall[i] += extra
			b.emitTransition(i, Transition{T: b.now[i], From: cur, To: ts.WantIndex, OK: false, Stall: extra})
		}
	}
	if th, ok := b.govs[i].(Throttler); ok {
		b.duty[i] = clampDuty(th.Duty())
	}
	ts.NextDuty = b.duty[i]
	clock.mark(&ts, StageActuate)
	b.emitTick(i, &ts, ph)
}
