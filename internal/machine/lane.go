package machine

import (
	"math"

	"aapm/internal/pstate"
	"aapm/internal/trace"
)

// A lane policy splits a governor into what every node of one
// configuration shares and what each node owns. The shared part — the
// configuration and the model it evaluates — is one immutable
// LanePolicy; the per-node part is a GovLane of a few words the tick
// engine keeps in a BatchState lane next to the node's p-state index.
// A 10⁵-node fleet under one configuration then steps one policy
// object and a contiguous slab of lanes instead of 10⁵ governor
// objects scattered across the heap.

// GovLane is one node's mutable governor state under a LanePolicy. The
// fields are named for the PerformanceMaximizer, the lane policy of
// package control: the power limit, the feedback correction, the
// decode rate the last tick evaluated and the up-shift streak. Flags
// are policy-defined bits (e.g. degradation episodes in progress).
//
// Write contract: inside a batch, the lane's policy writes it through
// TickLane, and everything else writes it through GovLane's methods
// (SetLimit, SetPendingUp) between the node's steps. A method that
// changes the lane also clears its settled marker, the engine's memo
// that the lane sits at its policy's fixed point (see step), which
// ends a coast (see BatchState.coast): a lane written any other way
// while it is bound into a batch may be stepped as if it had not
// changed.
type GovLane struct {
	LimitW    float64
	Corr      float64
	DPC       float64
	PendingUp int32
	Flags     uint8
	// settled is set by the engine after a steady tick whose TickLane
	// kept the p-state, noted no event and left every other field's
	// bits unchanged. It lives in the struct's padding: GovLane stays
	// 32 bytes.
	settled bool
}

// SetLimit changes the lane's power limit, effective at its next tick.
// A new limit restarts the up-shift streak. A limit with the bits of
// the current one on a lane with no streak leaves the lane
// bit-identical, so it stays settled.
func (l *GovLane) SetLimit(w float64) {
	if math.Float64bits(w) == math.Float64bits(l.LimitW) && l.PendingUp == 0 {
		return
	}
	l.LimitW = w
	l.PendingUp = 0
	l.settled = false
}

// SetPendingUp sets the lane's up-shift streak, effective at its next
// tick.
func (l *GovLane) SetPendingUp(n int32) {
	l.PendingUp = n
	l.settled = false
}

// sameBits reports whether the lanes' policy fields hold the same bits
// (the settled marker aside).
func (l *GovLane) sameBits(o *GovLane) bool {
	return math.Float64bits(l.LimitW) == math.Float64bits(o.LimitW) &&
		math.Float64bits(l.Corr) == math.Float64bits(o.Corr) &&
		math.Float64bits(l.DPC) == math.Float64bits(o.DPC) &&
		l.PendingUp == o.PendingUp && l.Flags == o.Flags
}

// LanePolicy is the shared, immutable part of a lane-backed governor.
// Its methods read and write only the lane they are handed, so one
// policy may serve any number of nodes, stepped concurrently.
// Implementations must be comparable (pointer types, typically):
// NewBatch compares them to share a policy-table entry across
// consecutive nodes.
type LanePolicy interface {
	// LaneName labels a node that starts from state st in traces.
	LaneName(st *GovLane) string
	// NameClass names the policy's naming rule: two policies of one
	// class give equal lanes equal LaneNames, so NewBatch formats one
	// name per class and starting lane, however many policy objects
	// share them.
	NameClass() string
	// TickLane is Governor.Tick over the lane with the degradations
	// left unrendered: it returns the desired p-state index for the
	// next interval, updating st in place, and ev, the policy-defined
	// set of degradation events the tick noted (0 for none), so a tick
	// that notes none builds no slice.
	//
	// Read contract: TickLane is a pure function of st and of the
	// info fields Sample, MeasuredPowerW, PStateIndex, PState and
	// Table; it reads no other field and keeps no state outside st.
	// The engine relies on this to skip the call on a settled lane
	// (see step): when those inputs and st hold the bits of a previous
	// call that returned the node's own p-state, noted no event and
	// left st unchanged, the call would do so again.
	TickLane(st *GovLane, info *TickInfo) (want int, ev uint8)
	// LaneDegradations renders the events ev of the tick that just
	// updated st, in the order the policy noted them; the engine calls
	// it only when ev != 0.
	LaneDegradations(st *GovLane, ev uint8) []trace.Degradation
	// LaneDesireW is the power limit the node would need to run the
	// table's top p-state at decode rate dpc: a budget coordinator's
	// demand signal.
	LaneDesireW(st *GovLane, t *pstate.Table, dpc float64) float64
}

// LaneGovernor is a standalone Governor that is a handle onto one
// GovLane under a LanePolicy. NewBatch moves the handle's state into
// the batch's lane and rebinds the handle to it, so the engine steps
// the lane directly while the handle's own methods (a limit setter, a
// Session's Governor) keep reading and writing the state the engine
// steps. Those writes go through GovLane's methods (GovLane's write
// contract), and the engine alone ticks a bound lane.
//
// A LaneGovernor's Name must equal its policy's LaneName of its lane.
type LaneGovernor interface {
	Governor
	// Policy returns the governor's shared policy.
	Policy() LanePolicy
	// BindLane copies the governor's current state into *l and makes
	// *l its state from then on.
	BindLane(l *GovLane)
}
