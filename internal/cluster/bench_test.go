package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"aapm/internal/sensor"
)

// BenchmarkClusterTick measures the coordinator's per-tick cost on an
// 8-node shared-budget run, serially and across an 8-worker pool. With
// 8 nodes each worker steps one node per tick, so the parallel variant
// mostly measures pool overhead (the barrier handoffs), and whenever
// GOMAXPROCS is below 8 the workers also queue for cores; its name
// records GOMAXPROCS. Worker scaling at fleet size is the perfbench
// fleet ledger's cluster.worker_speedup.
func BenchmarkClusterTick(b *testing.B) {
	for _, workers := range []int{1, 8} {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("parallel%d-on-%dcore", workers, runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			ticks := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					BudgetW: 104,
					Nodes:   eightNodes(b),
					Seed:    7,
					Chain:   sensor.NIDefault(),
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				ticks += shardSteps(res)
			}
			// shardSteps counts per-worker shard-steps (== ticks for
			// the serial run).
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/step")
			b.ReportMetric(float64(ticks)/float64(b.N), "steps/run")
		})
	}
}
