package machine_test

import (
	"runtime"
	"testing"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/phase"
	"aapm/internal/power"
)

// BenchmarkNewBatchFleet builds the batch of a 10⁵-node fleet the way
// cluster.RunFleet does: one shared machine, one PM policy, a lane and
// a seed offset per node, three workload shapes round-robin, read one
// node at a time through NewBatchFunc. Run with -benchmem; B/node is
// the bytes allocated per build divided by the node count.
func BenchmarkNewBatchFleet(b *testing.B) {
	const n = 100_000
	m, err := machine.New(machine.Config{Truth: power.PentiumM755Truth(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := control.NewPMPolicy(control.PMConfig{FeedbackGain: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	lane := pol.Lane(30)
	shapes := []phase.Workload{
		{Name: "fleet-cpu", Phases: []phase.Params{{Name: "cpu", Instructions: 2e9, CPICore: 1, MLP: 1, SpecFactor: 1.05}}},
		{Name: "fleet-mid", Phases: []phase.Params{{Name: "mid", Instructions: 1e9, CPICore: 2, MLP: 1, SpecFactor: 1.05}}},
		{Name: "fleet-mem", Phases: []phase.Params{{Name: "mem", Instructions: 6.7e8, CPICore: 3, MLP: 1, SpecFactor: 1.05}}},
	}
	node := func(i int) (machine.BatchNode, error) {
		return machine.BatchNode{Machine: m, Workload: shapes[i%len(shapes)], Policy: pol, Lane: lane, SeedOffset: int64(i) * 7919}, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		bs, err := machine.NewBatchFunc(n, node, machine.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if bs.Kind() != "pm" {
			b.Fatalf("fleet batch kind %q, want pm", bs.Kind())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/n, "B/node")
}
