package machine

import (
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
type GovLane struct {
	LimitW    float64
	Corr      float64
	DPC       float64
	PendingUp int32
	Flags     uint8
}

// SetLimit changes the lane's power limit, effective at its next tick.
// A new limit restarts the up-shift streak.
func (l *GovLane) SetLimit(w float64) {
	l.LimitW = w
	l.PendingUp = 0
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
// steps.
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
