package cluster

import (
	"context"
	"math"
	"slices"
	"testing"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/phase"
)

// epochMarks is a control plane that directs nothing and counts the
// epochs it is called at. Attached, it turns the repeat-epoch skip off
// and changes nothing else, so a fleet with it allocates every epoch.
type epochMarks struct{ epochs int }

func (c *epochMarks) Epoch(FleetEpochObs) FleetDirectives {
	c.epochs++
	return FleetDirectives{}
}

// decision is one reallocation decision the debug hook saw, in bits.
type decision struct {
	node          int
	desire, limit uint64
}

// tickCount is a run context that counts the coordinator's ticks: it
// reads Err once before each.
type tickCount struct {
	context.Context
	ticks int
}

func (c *tickCount) Err() error {
	c.ticks++
	return nil
}

// TestFleetRepeatEpochs holds a fleet whose epochs repeat to the same
// fleet allocating every epoch (epochMarks attached). One node changes
// its phase late in the run, so its desire changes at one epoch while
// every other record repeats; that epoch must allocate as the first
// one did, a decision for every fresh node with the bits of the
// reference's. Every epoch the fleet passes over must be one whose
// decisions have the bits of the epoch before it in the reference, and
// every node's run must match. The epochs are shorter than the PM's
// raise streak, so a node that waits to shift up is still waiting at
// each epoch, where the limit the allocation sets again restarts its
// streak.
func TestFleetRepeatEpochs(t *testing.T) {
	const n, epoch = 100, 5
	nodes := SyntheticFleet(n, 200)
	nodes[77] = Node{Workload: phase.Workload{Name: "fleet-late", Phases: []phase.Params{
		{Name: "cpu", Instructions: 160 * 20e6, CPICore: 1, MLP: 1, SpecFactor: 1.05},
		{Name: "mem", Instructions: 60 * 20e6 / 3, CPICore: 3, MLP: 1, SpecFactor: 1.05},
	}}}
	// run returns each epoch's decisions, keyed by epoch number.
	run := func(workers int, ctl FleetControl) (*FleetResult, map[int][]decision) {
		ctx := &tickCount{Context: context.Background()}
		decs := map[int][]decision{}
		debugHook = func(node int, desire, limit float64) {
			e := (ctx.ticks-1)/epoch - 1
			decs[e] = append(decs[e], decision{node, math.Float64bits(desire), math.Float64bits(limit)})
		}
		defer func() { debugHook = nil }()
		res, err := RunFleetContext(ctx, FleetConfig{
			BudgetW:    12 * n,
			Nodes:      nodes,
			Seed:       3,
			Workers:    workers,
			Levels:     2,
			Fanout:     8,
			EpochTicks: epoch,
			Control:    ctl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, decs
	}
	for _, workers := range []int{1, 2} {
		marks := &epochMarks{}
		ref, refDecs := run(workers, marks)
		got, gotDecs := run(workers, nil)
		if ref.repeatEpochs != 0 || len(refDecs) != ref.Epochs || ref.Epochs != marks.epochs {
			t.Fatalf("workers=%d: the reference allocated %d of %d epochs and repeated %d", workers, len(refDecs), ref.Epochs, ref.repeatEpochs)
		}
		if got.Epochs != ref.Epochs || got.repeatEpochs+len(gotDecs) != got.Epochs {
			t.Fatalf("workers=%d: %d epochs, %d allocated and %d repeated; the reference had %d", workers, got.Epochs, len(gotDecs), got.repeatEpochs, ref.Epochs)
		}
		first, late := len(refDecs[0]), -1
		for e := 0; e < ref.Epochs; e++ {
			d, ok := gotDecs[e]
			switch {
			case !ok && (e == 0 || !slices.Equal(refDecs[e], refDecs[e-1])):
				t.Fatalf("workers=%d epoch %d: repeated, but the reference's decisions changed", workers, e)
			case ok && !slices.Equal(d, refDecs[e]):
				t.Fatalf("workers=%d epoch %d: decisions %.200v, the reference's %.200v", workers, e, d, refDecs[e])
			case ok && e > ref.Epochs/2 && late < 0 && len(d) == first:
				late = e
			}
		}
		t.Logf("workers=%d: %d of %d epochs repeated, %d decisions at the first, the first late one anew at epoch %d", workers, got.repeatEpochs, got.Epochs, first, late)
		if got.repeatEpochs < got.Epochs/2 {
			t.Errorf("workers=%d: %d of %d epochs repeated, want at least half", workers, got.repeatEpochs, got.Epochs)
		}
		if late < 0 {
			t.Errorf("workers=%d: no epoch in the second half allocated over as many nodes as the first", workers)
		}
		for i := range ref.Runs {
			if r, g := runBits(ref.Runs[i]), runBits(got.Runs[i]); r != g {
				t.Fatalf("workers=%d node %d: reference run %.300s, repeating run %.300s", workers, i, r, g)
			}
		}
	}
}

// TestAssembleDemandRepeats pins the repeat check of a demand record:
// a record repeats only when its flags and both values have the bits
// of the one it replaces, so NaN desires repeat and -0 and +0 do not.
// Node 0 runs a PM, so a new epoch-average decode rate changes its
// desire alone; node 1 has no governor, so its desire is NaN, and a
// record of its that falls back to the tap differs from a held one in
// the hold flag alone and from a done one in the active flag alone.
func TestAssembleDemandRepeats(t *testing.T) {
	pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 15, FeedbackGain: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := SyntheticFleet(1, 10)[0].Workload
	bs, err := machine.NewBatch([]machine.BatchNode{{Machine: m, Workload: w, Governor: pm}, {Machine: m, Workload: w}}, machine.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	avg := nodeAcc{recentW: 12, recentDPC: 1.5, recentN: 3, lastSeq: 1, fresh: true}
	longer, otherDPC := avg, avg
	longer.recentN, otherDPC.recentDPC = 4, 1.25
	posW, negW := avg, avg
	posW.recentW, negW.recentW = 0, math.Copysign(0, -1)
	tap := nodeAcc{lastSeq: 1, fresh: true}
	dark := nodeAcc{lastSeq: 1}
	for _, c := range []struct {
		name           string
		node           int
		prev, next     nodeAcc
		prevDone, done bool
		want           bool
	}{
		{"same average", 0, avg, avg, false, false, true},
		{"other average", 0, avg, longer, false, false, false},
		{"other decode rate alone", 0, avg, otherDPC, false, false, false},
		{"-0 after +0 power", 0, posW, negW, false, false, false},
		{"done twice", 0, avg, avg, true, true, true},
		{"done now", 0, avg, avg, false, true, false},
		{"held after tap", 0, tap, dark, false, false, false},
		{"NaN desire twice", 1, avg, avg, false, false, true},
		{"NaN desire, other average", 1, avg, longer, false, false, false},
		{"tap twice", 1, tap, tap, false, false, true},
		{"held twice", 1, dark, dark, false, false, true},
		{"held after tap, NaN desire", 1, tap, dark, false, false, false},
		{"tap after held, NaN desire", 1, dark, tap, false, false, false},
		{"done after tap, NaN desire", 1, tap, tap, false, true, false},
	} {
		var d demand
		assembleDemand(&d, c.prevDone, &c.prev, bs, c.node)
		if got := assembleDemand(&d, c.done, &c.next, bs, c.node); got != c.want {
			t.Errorf("%s: repeats %v, want %v (record %+v)", c.name, got, c.want, d)
		}
	}
}
