package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
)

// eightNodes builds an 8-node population over the suite's spread of
// power appetites, shortened for test runtime.
func eightNodes(t testing.TB) []Node {
	t.Helper()
	names := []string{"swim", "mcf", "lucas", "crafty", "gzip", "gcc", "art", "ammp"}
	out := make([]Node, len(names))
	for i, n := range names {
		w, err := spec.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		w.Iterations = max(1, w.Repeats()/8)
		out[i] = Node{Workload: w}
	}
	return out
}

// tracesCSV serializes every node trace of a result, in node order.
func tracesCSV(t testing.TB, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, run := range res.Runs {
		fmt.Fprintf(&buf, "# node %d %s\n", i, res.Names[i])
		if err := run.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial is the determinism proof the parallel
// coordinator must carry: for several seeds, a run stepped across 8
// workers produces byte-for-byte the traces of the serial (Workers=1)
// reference, and the aggregate results match.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				BudgetW: 104,
				Nodes:   eightNodes(t),
				Seed:    seed,
				Chain:   sensor.NIDefault(),
				Workers: 1,
			}
			serial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Nodes = eightNodes(t)
			cfg.Workers = 8
			par, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Workers != 8 || serial.Workers != 1 {
				t.Fatalf("worker counts: serial %d, parallel %d", serial.Workers, par.Workers)
			}
			sb, pb := tracesCSV(t, serial), tracesCSV(t, par)
			if !bytes.Equal(sb, pb) {
				// Locate the first diverging line for the failure report.
				sl, pl := bytes.Split(sb, []byte("\n")), bytes.Split(pb, []byte("\n"))
				for i := 0; i < len(sl) && i < len(pl); i++ {
					if !bytes.Equal(sl[i], pl[i]) {
						t.Fatalf("parallel trace diverges from serial at line %d:\n  serial   %s\n  parallel %s", i, sl[i], pl[i])
					}
				}
				t.Fatalf("parallel traces differ in length: %d vs %d lines", len(sl), len(pl))
			}
			if serial.MachineSeconds != par.MachineSeconds || serial.Makespan != par.Makespan {
				t.Errorf("aggregates diverge: serial %v/%v, parallel %v/%v",
					serial.MachineSeconds, serial.Makespan, par.MachineSeconds, par.Makespan)
			}
			if serial.PeakTotalW != par.PeakTotalW || serial.OverFrac != par.OverFrac ||
				serial.ContendedOverFrac != par.ContendedOverFrac ||
				serial.ContendedIntervals != par.ContendedIntervals {
				t.Errorf("budget accounting diverges: serial %+v, parallel %+v", serial, par)
			}

			// A one-level fleet at the default worker count, rows
			// discarded, is the same coordinator: its aggregates and
			// per-node totals match the serial reference bit for bit.
			fleet, err := RunFleet(FleetConfig{
				BudgetW: 104,
				Nodes:   eightNodes(t),
				Seed:    seed,
				Chain:   sensor.NIDefault(),
				Levels:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fleet.MachineSeconds) != math.Float64bits(serial.MachineSeconds) ||
				fleet.Makespan != serial.Makespan ||
				math.Float64bits(fleet.PeakTotalW) != math.Float64bits(serial.PeakTotalW) ||
				math.Float64bits(fleet.OverFrac) != math.Float64bits(serial.OverFrac) ||
				math.Float64bits(fleet.ContendedOverFrac) != math.Float64bits(serial.ContendedOverFrac) {
				t.Errorf("one-level fleet aggregates diverge from the flat serial run: fleet %+v, flat %+v", fleet, serial)
			}
			for i, got := range fleet.Runs {
				want := serial.Runs[i]
				if math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) ||
					got.Duration != want.Duration || got.Transitions != want.Transitions {
					t.Errorf("node %d: fleet energy/duration/transitions %v/%v/%d, flat %v/%v/%d", i,
						got.EnergyJ, got.Duration, got.Transitions, want.EnergyJ, want.Duration, want.Transitions)
				}
			}
		})
	}
}

// TestParallelEightNodeRace drives the default worker count over an
// 8-node run; under -race (CI) it proves the stepping path clean.
func TestParallelEightNodeRace(t *testing.T) {
	res, err := Run(Config{
		BudgetW: 104,
		Nodes:   eightNodes(t),
		Seed:    5,
		Chain:   sensor.NIDefault(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 8 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for i, run := range res.Runs {
		if run.Duration <= 0 || run.Instructions <= 0 {
			t.Errorf("node %s degenerate run", res.Names[i])
		}
	}
	for k, w := range res.WorkerWall {
		if w.N == 0 || w.Total <= 0 {
			t.Errorf("worker %d wall-clock not collected: %+v", k, w)
		}
	}
}

// TestWorkerCountClamps pins the worker-count selection: more workers
// than nodes clamp to the node count, and 0 selects a positive
// default.
func TestWorkerCountClamps(t *testing.T) {
	ws := nodes(t, "gzip", "crafty")
	ws[0].Workload.Iterations = 1
	ws[1].Workload.Iterations = 1
	res, err := Run(Config{BudgetW: 30, Nodes: ws, Seed: 3, Chain: sensor.NIDefault(), Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 2 {
		t.Errorf("64 workers over 2 nodes ran with %d workers, want 2", res.Workers)
	}
	res, err = Run(Config{BudgetW: 30, Nodes: nodes(t, "gzip", "crafty"), Seed: 3, Chain: sensor.NIDefault()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers < 1 {
		t.Errorf("default worker count %d", res.Workers)
	}
}

// TestShardBounds pins the stepping layout: contiguous ranges that
// cover every node once, boundaries on 64-node multiples whenever each
// worker can get a whole 64-node unit, and a per-node accumulator and
// per-worker tally that tile cache lines.
func TestShardBounds(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{1, 1}, {8, 8}, {50, 3}, {127, 2}, {128, 2}, {3_000, 2}, {100_000, 2}, {100_000, 3}, {100_000, 7},
	} {
		b := shardBounds(c.n, c.workers)
		if len(b) != c.workers+1 || b[0] != 0 || b[c.workers] != c.n {
			t.Fatalf("n=%d workers=%d: bounds %v do not cover [0, n)", c.n, c.workers, b)
		}
		for k := 0; k < c.workers; k++ {
			if b[k] > b[k+1] {
				t.Fatalf("n=%d workers=%d: bounds %v not ordered", c.n, c.workers, b)
			}
			if c.n >= shardAlign*c.workers && b[k]%shardAlign != 0 {
				t.Errorf("n=%d workers=%d: boundary %d off the %d-node grid", c.n, c.workers, b[k], shardAlign)
			}
			if b[k] == b[k+1] {
				t.Errorf("n=%d workers=%d: worker %d owns no nodes (%v)", c.n, c.workers, k, b)
			}
		}
	}
	if s := unsafe.Sizeof(nodeAcc{}); cacheLine%s != 0 {
		t.Errorf("nodeAcc is %d bytes; does not tile a %d-byte line", s, cacheLine)
	}
	if s := unsafe.Sizeof(shardTally{}); s%cacheLine != 0 {
		t.Errorf("shardTally is %d bytes, not a multiple of the %d-byte line", s, cacheLine)
	}
}

// TestFleetCoastMatchesObserved holds a fleet whose settled nodes
// coast, and whose shards pass over blocks where every node coasts, to
// the same fleet observed: a no-op hook on every node puts the batch on
// the full event order, where no node coasts and so no block with a
// live node sleeps. Every run total, the power aggregates, the epoch
// and node-tick counts must agree bit for bit, at one, two and three
// workers. The ideal chain and zero-jitter workloads let the plain
// fleet's nodes settle and coast, many across reallocations that leave
// their limits' bits alone; multi-phase nodes end coasts at phase ends
// mid-epoch, where their reading changes, and nodes of five lengths
// finish on different ticks inside one block. The node count is no
// multiple of 64, so the last block of the last shard is short.
//
// A second set of runs attaches a control plane that takes every fifth
// node offline and pins every seventh, each for one epoch in three, and
// then puts them back in service, so coasting nodes leave and rejoin
// the power sums. There both sides also carry a telemetry registry:
// the epochs' group observations and the registry's exposition (wall
// clocks aside) must agree too, so the level-1 group sums that only
// changed groups re-sum hold to the full order's. The plain runs must
// have passed over at least a set number of block-ticks.
//
// The plain runs must also have hit each repeat memo (coast replays,
// horizons and folds), which the observed runs, where nothing coasts,
// never look up. The SyntheticFleet nodes outlive the others by
// about a hundred ticks, so without a control plane the plain runs'
// last epochs repeat the one before and skip their allocation; the
// observed runs there carry a control plane that directs nothing
// (epochMarks), which turns the skip off, so they allocate every
// epoch.
func TestFleetCoastMatchesObserved(t *testing.T) {
	const n, ticks = 600, 250
	nodes := SyntheticFleet(n, ticks)
	multi := phase.Workload{Name: "fleet-multi", Phases: []phase.Params{
		{Name: "cpu", Instructions: 35 * 20e6, CPICore: 1, MLP: 1, SpecFactor: 1.05},
		{Name: "mem", Instructions: 25 * 20e6 / 3, CPICore: 3, MLP: 1, SpecFactor: 1.05},
		{Name: "mid", Instructions: 40 * 20e6 / 2, CPICore: 2, MLP: 1, SpecFactor: 1.05},
	}}
	for i := 0; i < n; i += 4 {
		nodes[i] = Node{Workload: multi}
	}
	for i := 2; i < n; i += 4 {
		k := float64(i/4%5 + 1)
		nodes[i] = Node{Workload: phase.Workload{Name: fmt.Sprintf("fleet-len%v", k), Phases: []phase.Params{
			{Name: "mid", Instructions: (60 + 12*k) * 20e6 / 2, CPICore: 2, MLP: 1, SpecFactor: 1.05},
		}}}
	}
	run := func(workers int, observed bool, ctl *overrideCycle) (*FleetResult, string) {
		cfg := FleetConfig{
			BudgetW:    13 * n,
			Nodes:      nodes,
			Seed:       5,
			Workers:    workers,
			Levels:     3,
			Fanout:     8,
			EpochTicks: 25,
		}
		if observed {
			cfg.Observe = func(int) []machine.Hook { return []machine.Hook{machine.BaseHook{}} }
		}
		if ctl != nil {
			cfg.Control = ctl
			cfg.Telemetry = telemetry.NewRegistry()
		} else if observed {
			cfg.Control = &epochMarks{}
		}
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var text []string
		if cfg.Telemetry != nil {
			for _, line := range strings.Split(string(exposition(t, cfg.Telemetry)), "\n") {
				if !strings.Contains(line, "_wall_") {
					text = append(text, line)
				}
			}
		}
		return res, strings.Join(text, "\n")
	}
	bits := func(res *FleetResult) string {
		return fmt.Sprintf("peak %#x over %#x contended %#x epochs %d node-ticks %d",
			math.Float64bits(res.PeakTotalW), math.Float64bits(res.OverFrac),
			math.Float64bits(res.ContendedOverFrac), res.Epochs, res.NodeTicks)
	}
	for _, controlled := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3} {
			var plainCtl, observedCtl *overrideCycle
			if controlled {
				plainCtl, observedCtl = &overrideCycle{}, &overrideCycle{}
			}
			plain, plainText := run(workers, false, plainCtl)
			observed, observedText := run(workers, true, observedCtl)
			if res := observed; res.Epochs < 5 || res.NodeTicks < n*ticks/2 || res.PeakTotalW == 0 {
				t.Fatalf("control=%v workers=%d: %d epochs, %d node-ticks, peak %v W; want a multi-epoch run", controlled, workers, res.Epochs, res.NodeTicks, res.PeakTotalW)
			}
			if p, o := bits(plain), bits(observed); p != o {
				t.Errorf("control=%v workers=%d: plain %s, observed %s", controlled, workers, p, o)
			}
			memos := memoTotals(plain.memos)
			t.Logf("control=%v workers=%d: %d block-ticks passed over, %d intervals, %d of %d epochs repeated, memos %+v", controlled, workers, plain.blockSkips, plain.Intervals, plain.repeatEpochs, plain.Epochs, memos)
			for _, c := range []machine.MemoCount{memos.Replay, memos.Horizon, memos.Fold} {
				if c.Hits == 0 {
					t.Errorf("control=%v workers=%d: a memo was never hit: %+v", controlled, workers, memos)
				}
			}
			if o := memoTotals(observed.memos); o != (machine.MemoStats{}) {
				t.Errorf("control=%v workers=%d: the observed run looked memos up: %+v", controlled, workers, o)
			}
			if observed.repeatEpochs != 0 || controlled != (plain.repeatEpochs == 0) {
				t.Errorf("control=%v workers=%d: %d epochs repeated plain, %d observed", controlled, workers, plain.repeatEpochs, observed.repeatEpochs)
			}
			// Each plain node coasts most of its ticks; a block sleeps
			// between the ends of its nodes' coasts.
			if plain.blockSkips < int64(n/blockSize*ticks/2) {
				t.Errorf("control=%v workers=%d: the plain run passed over %d block-ticks, want at least %d", controlled, workers, plain.blockSkips, n/blockSize*ticks/2)
			}
			if controlled {
				if observedCtl.returned == 0 || observedCtl.pinned == 0 {
					t.Fatalf("workers=%d: %d nodes came back into service after %d pins", workers, observedCtl.returned, observedCtl.pinned)
				}
				if p, o := plainCtl.obs.String(), observedCtl.obs.String(); p != o {
					t.Errorf("workers=%d: plain group observations %.300s, observed %.300s", workers, p, o)
				}
				if plainText != observedText {
					t.Errorf("workers=%d: plain telemetry\n%.2000s\nobserved\n%.2000s", workers, plainText, observedText)
				}
			}
			for i := range plain.Runs {
				if p, o := runBits(plain.Runs[i]), runBits(observed.Runs[i]); p != o {
					t.Fatalf("control=%v workers=%d node %d: plain run %.300s, observed %.300s", controlled, workers, i, p, o)
				}
			}
		}
	}
}

// memoTotals sums the workers' memo counts.
func memoTotals(ms []machine.MemoStats) machine.MemoStats {
	add := func(sum *machine.MemoCount, c machine.MemoCount) {
		sum.Lookups += c.Lookups
		sum.Hits += c.Hits
	}
	var t machine.MemoStats
	for _, m := range ms {
		add(&t.Replay, m.Replay)
		add(&t.Horizon, m.Horizon)
		add(&t.Fold, m.Fold)
	}
	return t
}

// overrideCycle is a control plane that, on every third epoch, takes
// every fifth node offline and pins every seventh one, and puts them
// back in service on the next epoch, recording the bits of each
// epoch's group observations.
type overrideCycle struct {
	nodes            []NodeOverride
	obs              strings.Builder
	pinned, returned int
}

func (c *overrideCycle) Epoch(o FleetEpochObs) FleetDirectives {
	for _, g := range o.Groups {
		fmt.Fprintf(&c.obs, "%d:%#x/%d ", o.Epoch, math.Float64bits(g.AvgPowerW), g.Active)
	}
	if c.nodes == nil {
		c.nodes = make([]NodeOverride, len(o.NodeActive))
	}
	for i := range c.nodes {
		switch {
		case o.Epoch%3 == 1 && i%5 == 0:
			c.nodes[i] = NodeOffline
		case o.Epoch%3 == 1 && i%7 == 3:
			c.nodes[i] = NodePinned
			c.pinned++
		case c.nodes[i] != NodeAuto:
			c.nodes[i] = NodeAuto
			c.returned++
		}
	}
	return FleetDirectives{Nodes: c.nodes}
}

// TestShardCoastFold holds the shards' late fold of coast intervals,
// and their passing over blocks, to the fold of the same nodes on the
// full event order, where none coasts: after every tick each shard's
// stepped count, each power entry and each sum of a group of three
// entries must have the same bits, the group sums that only changed
// groups re-sum equal to the group's entries summed afresh, and after
// every epoch tick each accumulator must too. Multi-phase nodes end
// coasts at phase ends, where the reading changes, nodes of five
// lengths finish on different ticks, and between epochs half the nodes
// get a new limit and half their own, which keeps them coasting across
// the epoch. 16 nodes over two workers are one block per shard; 200
// are two blocks and a short third. In the 200-node fleet, where each
// shard has several nodes of one length and limit, each repeat memo
// (coast replays, horizons and folds) must have been hit.
func TestShardCoastFold(t *testing.T) {
	const epoch, fanout = 15, 3
	pol, err := control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	limit := func(i, e int) float64 { return 11 + float64(i%4) + float64(e%2*(i%2)) }
	for _, n := range []int{16, 200} {
		build := func(full bool) *stepper {
			m, err := machine.New(machine.Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]machine.BatchNode, n)
			for i := range nodes {
				k := float64(i % 5)
				w := phase.Workload{Name: fmt.Sprintf("fold-multi%v", k), Iterations: 2, Phases: []phase.Params{
					{Name: "cpu", Instructions: (30 + 5*k) * 20e6, CPICore: 1, MLP: 1, SpecFactor: 1.05},
					{Name: "mem", Instructions: 30 * 20e6 / 3, CPICore: 3, MLP: 1, SpecFactor: 1.05},
				}}
				nodes[i] = machine.BatchNode{Machine: m, Workload: w, Policy: pol, Lane: pol.Lane(limit(i, 0)), SeedOffset: int64(i)}
			}
			var opts machine.BatchOptions
			if full {
				opts.Hooks = func(int) []machine.Hook { return []machine.Hook{machine.BaseHook{}} }
			}
			bs, err := machine.NewBatch(nodes, opts)
			if err != nil {
				t.Fatal(err)
			}
			return newStepper(bs, nil, 2)
		}
		coast, full := build(false), build(true)
		groups := (n + fanout - 1) / fanout
		coastW, fullW := make([]float64, groups), make([]float64, groups)
		accBits := func(a nodeAcc) string {
			return fmt.Sprintf("%#x %#x %d %d %v", math.Float64bits(a.recentW), math.Float64bits(a.recentDPC), a.lastSeq, a.recentN, a.fresh)
		}
		lagged := 0
		for tick := 1; ; tick++ {
			coast.epochFold = tick%epoch == 0
			full.epochFold = coast.epochFold
			stepped := 0
			for k := range coast.tally {
				coast.shard(k)
				full.shard(k)
				stepped += coast.tally[k].stepped
				if coast.tally[k].stepped != full.tally[k].stepped {
					t.Fatalf("n=%d tick %d shard %d: stepped %d coasting, %d on the full order", n, tick, k, coast.tally[k].stepped, full.tally[k].stepped)
				}
			}
			coast.wakeAll, full.wakeAll = false, false
			if stepped == 0 {
				break
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(coast.power[i]) != math.Float64bits(full.power[i]) {
					t.Fatalf("n=%d tick %d node %d: power %v coasting, %v on the full order", n, tick, i, coast.power[i], full.power[i])
				}
				if coast.acc[i].lastSeq != coast.bs.Seq(i) {
					lagged++
				}
			}
			coast.sumGroups(coastW, fanout)
			full.sumGroups(fullW, fanout)
			for g := range coastW {
				var sum float64
				for _, w := range coast.power[g*fanout : min((g+1)*fanout, n)] {
					sum += w
				}
				c, f, s := math.Float64bits(coastW[g]), math.Float64bits(fullW[g]), math.Float64bits(sum)
				if c != s || f != s {
					t.Fatalf("n=%d tick %d group %d: sum %v coasting, %v on the full order, %v afresh", n, tick, g, coastW[g], fullW[g], sum)
				}
			}
			if !coast.epochFold {
				continue
			}
			for i := 0; i < n; i++ {
				if a, b := accBits(coast.acc[i]), accBits(full.acc[i]); a != b {
					t.Fatalf("n=%d tick %d node %d: accumulator %s coasting, %s on the full order", n, tick, i, a, b)
				}
				coast.acc[i].reset()
				full.acc[i].reset()
				l := limit(i, tick/epoch)
				coast.bs.SetLimit(i, l)
				full.bs.SetLimit(i, l)
			}
			coast.wakeAll, full.wakeAll = true, true
		}
		if lagged < 60*n {
			t.Errorf("n=%d: accumulators lagged the engine on %d node-ticks, want at least %d coast intervals folded late", n, lagged, 60*n)
		}
		var skips int64
		for k := range coast.tally {
			skips += coast.tally[k].skips
		}
		ms := make([]machine.MemoStats, len(coast.tally))
		for k := range coast.tally {
			ms[k] = coast.tally[k].step.MemoStats()
		}
		memos := memoTotals(ms)
		t.Logf("n=%d: %d node-ticks folded late, %d block-ticks passed over, memos %+v", n, lagged, skips, memos)
		if skips < 100 {
			t.Errorf("n=%d: the shards passed over %d block-ticks, want at least 100", n, skips)
		}
		// Nodes of one length and limit repeat every 20 indices: only
		// the larger fleet has two of a kind in one shard.
		for _, c := range []machine.MemoCount{memos.Replay, memos.Horizon, memos.Fold} {
			if n > 40 && c.Hits == 0 {
				t.Errorf("n=%d: a memo was never hit: %+v", n, memos)
			}
		}
	}
}

// TestShardFold pins the per-node fold the workers run: each stepped
// node's fresh interval lands in its accumulator and the power lane, a
// node that is not stepped (offlined here) holds +0 in the lane, the
// accumulator's sequence tracks the engine's, and a node that fails
// mid-step raises its own shard's error flag and no other. A coasting
// node folds its coast intervals late, so each tick's checks run after
// the fold every worker makes on an epoch tick (foldShard).
func TestShardFold(t *testing.T) {
	w := SyntheticFleet(1, 50)[0].Workload
	var nodes []machine.BatchNode
	for i := 0; i < 4; i++ {
		cfg := machine.Config{Seed: int64(i)}
		if i == 2 {
			cfg.MaxTicks = 3
		}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 30})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, machine.BatchNode{Machine: m, Workload: w, Governor: pm})
	}
	bs, err := machine.NewBatch(nodes, machine.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	offline := make([]NodeOverride, 4)
	offline[1] = NodeOffline
	st := newStepper(bs, offline, 2) // worker 0: nodes 0-1, worker 1: nodes 2-3
	for tick := 1; tick <= 4; tick++ {
		st.shard(0)
		st.shard(1)
		st.foldShard(0)
		st.foldShard(1)
		if st.tally[0].stepped != 1 || st.tally[1].stepped != 2 {
			t.Fatalf("tick %d: stepped %d/%d, want 1/2", tick, st.tally[0].stepped, st.tally[1].stepped)
		}
		if st.tally[0].failed || st.tally[1].failed != (tick == 4) {
			t.Fatalf("tick %d: failed flags %v/%v", tick, st.tally[0].failed, st.tally[1].failed)
		}
		if st.power[1] != 0 || st.acc[1] != (nodeAcc{}) {
			t.Fatalf("tick %d: offlined node folded: power %v, acc %+v", tick, st.power[1], st.acc[1])
		}
		for _, i := range []int{0, 3} {
			a := st.acc[i]
			if st.power[i] != bs.LastPowerW(i) || a.lastSeq != bs.Seq(i) || a.recentN != int32(tick) || !a.fresh {
				t.Fatalf("tick %d node %d: power %v (engine %v), acc %+v, seq %d",
					tick, i, st.power[i], bs.LastPowerW(i), a, bs.Seq(i))
			}
		}
	}
	if bs.NodeErr(2) == nil {
		t.Fatal("node 2 did not fail past its tick bound")
	}
}
