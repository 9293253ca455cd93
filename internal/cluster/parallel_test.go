package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/sensor"
	"aapm/internal/spec"
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
	if res.TickWall.N == 0 || res.TickWall.Total <= 0 {
		t.Errorf("coordinator wall-clock not collected: %+v", res.TickWall)
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

// TestShardFold pins the per-node fold the workers run: each stepped
// node's fresh interval lands in its accumulator and the power lane, a
// node that is not stepped (offlined here) holds +0 in the lane, the
// accumulator's sequence tracks the engine's, and a node that fails
// mid-step raises its own shard's error flag and no other.
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
