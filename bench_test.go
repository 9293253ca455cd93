package aapm

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out and micro-benches for the simulator hot paths.
//
// Each figure/table benchmark rebuilds a fresh experiment context per
// iteration (the context caches runs, so reusing one would measure a
// map lookup) and reports the experiment's headline quantity via
// b.ReportMetric so regressions in the reproduced numbers are visible
// in benchmark output.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"aapm/internal/control"
	"aapm/internal/counters"
	"aapm/internal/experiment"
	"aapm/internal/kernel"
	"aapm/internal/machine"
	"aapm/internal/mloops"
	"aapm/internal/model"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

func newBenchHierarchy() (*kernel.Hierarchy, error) { return kernel.NewPentiumMHierarchy() }

// benchCtx builds a fresh full-length experiment context.
func benchCtx(b *testing.B) *experiment.Context {
	b.Helper()
	c, err := experiment.NewContext(experiment.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

type printable interface{ Print(io.Writer) error }

// emit prints the experiment output once (first iteration only) so a
// -bench run regenerates the actual tables.
func emit(b *testing.B, i int, r printable) {
	b.Helper()
	if i != 0 || !testing.Verbose() {
		return
	}
	if err := r.Print(benchWriter{b}); err != nil {
		b.Fatal(err)
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

func BenchmarkFig1PowerVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig1PowerVariation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RangeFrac*100, "range-%of-peak")
		emit(b, i, r)
	}
}

func BenchmarkFig2PstatePerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig2PstatePerformance()
		if err != nil {
			b.Fatal(err)
		}
		// swim's relative performance at 1600 MHz (paper: ~1).
		b.ReportMetric(r.Rows[0].RelPerf[0], "swim-rel@1600")
		emit(b, i, r)
	}
}

func BenchmarkTableIMicrobenchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).TableIMicrobenchmarks()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Rows)), "configs")
		emit(b, i, r)
	}
}

func BenchmarkTableIIPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).TableIIPowerModel()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanAbsErrW, "train-MAE-W")
		b.ReportMetric(r.PerfFit.Best.Exponent, "eq3-exponent")
		emit(b, i, r)
	}
}

func BenchmarkTableIIIWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).TableIIIWorstCase()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[len(r.Rows)-1].PowerW, "FMA256K@2GHz-W")
		emit(b, i, r)
	}
}

func BenchmarkTableIVStaticFrequencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).TableIVStaticFrequencies()
		if err != nil {
			b.Fatal(err)
		}
		match := 0
		for _, row := range r.Rows {
			if row.FreqMHz == row.PaperMHz {
				match++
			}
		}
		b.ReportMetric(float64(match), "rows-matching-paper")
		emit(b, i, r)
	}
}

func BenchmarkFig5PMTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig5PMTimeline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PM145.AvgPowerW(), "ammp@14.5W-avgW")
		emit(b, i, r)
	}
}

func BenchmarkFig6PerfVsPowerLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig6PerfVsPowerLimit()
		if err != nil {
			b.Fatal(err)
		}
		// Dynamic-over-static advantage at the tightest limit.
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.NormPerfPM-last.NormPerfStatic, "pm-advantage@10.5W")
		emit(b, i, r)
	}
}

func BenchmarkFig7PMSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig7PMSpeedup()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FractionOfPossible*100, "%of-possible-speedup")
		emit(b, i, r)
	}
}

func BenchmarkPMLimitAdherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).PMLimitAdherence()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Worst.OverFrac*100, "worst-%overlimit")
		emit(b, i, r)
	}
}

func BenchmarkFig8PSTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig8PSTimeline()
		if err != nil {
			b.Fatal(err)
		}
		save := 1 - r.PS80.MeasuredEnergyJ/r.Unconstrained.MeasuredEnergyJ
		b.ReportMetric(save*100, "ammp-%savings@80")
		emit(b, i, r)
	}
}

func BenchmarkFig9PSSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig9PSSuite()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].EnergySavings*100, "suite-%savings@80")
		b.ReportMetric(r.Rows[1].PerfReduction*100, "suite-%loss@60")
		emit(b, i, r)
	}
}

func BenchmarkFig10EnergySavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig10EnergySavings()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].At600*100, "top-saver-%@600MHz")
		emit(b, i, r)
	}
}

func BenchmarkFig11PerfReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).Fig11PerfReduction()
		if err != nil {
			b.Fatal(err)
		}
		var art81, art59 float64
		for _, v := range r.Violations {
			if v.Name == "art" && v.Floor == 0.80 {
				art81, art59 = v.Reduction081*100, v.Reduction059*100
			}
		}
		b.ReportMetric(art81, "art-%loss@80-e081")
		b.ReportMetric(art59, "art-%loss@80-e059")
		emit(b, i, r)
	}
}

// --- ablation benches ---

// ablationRun executes one workload under a PM variant and returns the
// over-limit sample fraction and performance normalized to 2 GHz.
func ablationRun(b *testing.B, name string, limit float64, cfg control.PMConfig, period time.Duration) (overFrac, normPerf float64) {
	b.Helper()
	w, err := spec.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() *machine.Machine {
		m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 7, SamplePeriod: period})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	base, err := mk().Run(w, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg.LimitW = limit
	pm, err := control.NewPerformanceMaximizer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	run, err := mk().Run(w, pm)
	if err != nil {
		b.Fatal(err)
	}
	return trace.FractionAbove(run.MeasuredPowers(), limit),
		base.Duration.Seconds() / run.Duration.Seconds()
}

// BenchmarkAblationPMHysteresis compares the paper's 100 ms up-shift
// hysteresis with an eager single-sample policy on the bursty galgel.
func BenchmarkAblationPMHysteresis(b *testing.B) {
	for _, ticks := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("raiseTicks=%d", ticks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				over, perf := ablationRun(b, "galgel", 13.5,
					control.PMConfig{RaiseTicks: ticks}, 0)
				b.ReportMetric(over*100, "%overlimit")
				b.ReportMetric(perf*100, "%of-2GHz-perf")
			}
		})
	}
}

// BenchmarkAblationPMGuardband sweeps the estimation guardband.
func BenchmarkAblationPMGuardband(b *testing.B) {
	for _, gb := range []float64{-1, 0.5, 1.0} {
		label := fmt.Sprintf("guardband=%.1fW", gb)
		if gb < 0 {
			label = "guardband=off"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				over, perf := ablationRun(b, "galgel", 13.5,
					control.PMConfig{GuardbandW: gb}, 0)
				b.ReportMetric(over*100, "%overlimit")
				b.ReportMetric(perf*100, "%of-2GHz-perf")
			}
		})
	}
}

// BenchmarkAblationDPCProjection compares eq. 4's conservative decode
// projection against estimating every state at the observed rate, on a
// memory-bound workload where the projection matters most.
func BenchmarkAblationDPCProjection(b *testing.B) {
	for _, off := range []bool{false, true} {
		label := "eq4-projection"
		if off {
			label = "no-projection"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				over, perf := ablationRun(b, "mcf", 10.5,
					control.PMConfig{DisableDPCProjection: off}, 0)
				b.ReportMetric(over*100, "%overlimit")
				b.ReportMetric(perf*100, "%of-2GHz-perf")
			}
		})
	}
}

// BenchmarkAblationSamplePeriod varies the monitoring interval around
// the paper's 10 ms.
func BenchmarkAblationSamplePeriod(b *testing.B) {
	for _, period := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(period.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				over, perf := ablationRun(b, "galgel", 13.5, control.PMConfig{}, period)
				b.ReportMetric(over*100, "%overlimit")
				b.ReportMetric(perf*100, "%of-2GHz-perf")
			}
		})
	}
}

// BenchmarkAblationPSExponent contrasts the two eq. 3 local minima on
// the paper's violating workloads.
func BenchmarkAblationPSExponent(b *testing.B) {
	for _, e := range []float64{model.PaperExponent, model.PaperExponentAlt} {
		b.Run(fmt.Sprintf("exponent=%.2f", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var worst float64
				for _, n := range []string{"art", "mcf"} {
					w, err := spec.ByName(n)
					if err != nil {
						b.Fatal(err)
					}
					m, err := machine.New(machine.Config{Seed: 7})
					if err != nil {
						b.Fatal(err)
					}
					base, err := m.Run(w, nil)
					if err != nil {
						b.Fatal(err)
					}
					ps, err := control.NewPowerSave(control.PSConfig{
						Floor: 0.8,
						Perf:  model.PerfModel{Threshold: model.PaperDCUThreshold, Exponent: e},
					})
					if err != nil {
						b.Fatal(err)
					}
					run, err := m.Run(w, ps)
					if err != nil {
						b.Fatal(err)
					}
					if loss := 1 - base.Duration.Seconds()/run.Duration.Seconds(); loss > worst {
						worst = loss
					}
				}
				b.ReportMetric(worst*100, "worst-%loss@80floor")
			}
		})
	}
}

// --- simulator micro-benches ---

// benchSessionTicks steps sessions made by build one interval at a
// time and stops at b.N intervals, so ns/op is the cost of one tick at
// any b.N. A finished session is rebuilt with the timer stopped.
func benchSessionTicks(b *testing.B, build func() *machine.Session) {
	s := build()
	b.ResetTimer()
	for ticks := 0; ticks < b.N; ticks++ {
		if s.Done() {
			b.StopTimer()
			s = build()
			b.StartTimer()
		}
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ammpSession returns a session builder for ammp on a seeded NI
// machine; subscribe, when non-nil, adds a hook to each new session.
func ammpSession(b *testing.B, subscribe func(*machine.Session)) func() *machine.Session {
	w, err := spec.ByName("ammp")
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return func() *machine.Session {
		s, err := m.NewSession(w, nil)
		if err != nil {
			b.Fatal(err)
		}
		if subscribe != nil {
			subscribe(s)
		}
		return s
	}
}

// BenchmarkMachineTick measures the per-interval simulation cost of a
// trace-retaining single run.
func BenchmarkMachineTick(b *testing.B) {
	benchSessionTicks(b, ammpSession(b, nil))
}

// BenchmarkTelemetryOff measures the per-interval cost with the
// telemetry layer compiled in but no subscriber attached — the
// partner of BenchmarkTelemetryOn.
func BenchmarkTelemetryOff(b *testing.B) {
	benchSessionTicks(b, ammpSession(b, nil))
}

// BenchmarkTelemetryOn measures the per-interval cost with a registry
// observer subscribed — what a scraped run actually pays.
func BenchmarkTelemetryOn(b *testing.B) {
	reg := telemetry.NewRegistry()
	benchSessionTicks(b, ammpSession(b, func(s *machine.Session) {
		s.Subscribe(telemetry.NewObserver(reg, "bench", "none"))
	}))
}

// BenchmarkBatchTick measures the tick engine's cost per node-tick on
// a batch without the full event order (Kind "pm"): the cluster
// benchmark's eight-node mix (NI chain, per-node PM at the same 13 W
// share) stepped as one BatchState with trace retention off — the
// telemetry-off, faults-off hot path the zero-allocation gate
// (TestBatchTickAllocs) pins. Compare ns/op
// here against BenchmarkClusterTick's ns/step divided by its node
// count; perfbench's fleet workload reports the same body cost as
// kernel.pm_ns_per_node_tick.
func BenchmarkBatchTick(b *testing.B) {
	names := []string{"swim", "mcf", "lucas", "crafty", "gzip", "gcc", "art", "ammp"}
	build := func() *machine.BatchState {
		nodes := make([]machine.BatchNode, len(names))
		for i, name := range names {
			w, err := spec.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			// Full-length workloads so per-build setup (RNG seeding,
			// behaviour caches) amortizes over tens of thousands of
			// ticks, as it does in a real experiment run.
			w.Iterations = w.Repeats()
			m, err := machine.New(machine.Config{Chain: sensor.NIDefault(), Seed: 7 + int64(i)*7919})
			if err != nil {
				b.Fatal(err)
			}
			pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 13, FeedbackGain: 0.25})
			if err != nil {
				b.Fatal(err)
			}
			nodes[i] = machine.BatchNode{Machine: m, Workload: w, Governor: pm}
		}
		bs, err := machine.NewBatch(nodes, machine.BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if bs.Kind() != "pm" {
			b.Fatalf("expected the pm fast path, got %q", bs.Kind())
		}
		return bs
	}
	// Node-ticks are counted as they are stepped, and the loop stops
	// at b.N exactly; a finished batch is rebuilt off the clock.
	b.ReportAllocs()
	bs := build()
	b.ResetTimer()
	for ticks := 0; ticks < b.N; {
		stepped := false
		for i := 0; i < len(names) && ticks < b.N; i++ {
			if bs.StepNode(i) {
				stepped = true
				ticks++
			}
		}
		if !stepped {
			if err := bs.Err(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			bs = build()
			b.StartTimer()
		}
	}
}

// BenchmarkCacheAccess measures the cache model's lookup cost.
func BenchmarkCacheAccess(b *testing.B) {
	g := mloops.NewGenerator(mloops.DAXPY, mloops.FootprintL2)
	h, err := newBenchHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := g.Next()
		for _, r := range op.Refs {
			h.Access(r.Addr, r.Write)
		}
	}
}

// BenchmarkPMTick measures the PM decision cost per 10 ms interval.
func BenchmarkPMTick(b *testing.B) {
	pm, err := control.NewPerformanceMaximizer(control.PMConfig{LimitW: 13.5})
	if err != nil {
		b.Fatal(err)
	}
	info := benchTickInfo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Tick(&info)
	}
}

// BenchmarkPSTick measures the PS decision cost per 10 ms interval.
func BenchmarkPSTick(b *testing.B) {
	ps, err := control.NewPowerSave(control.PSConfig{Floor: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	info := benchTickInfo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Tick(&info)
	}
}

func benchTickInfo() machine.TickInfo {
	tab := PentiumM755()
	var s counters.Sample
	s.SetCount(counters.Cycles, 20_000_000)
	s.SetCount(counters.InstDecoded, 24_000_000)
	s.SetCount(counters.InstRetired, 20_000_000)
	s.SetCount(counters.DCUMissOutstanding, 5_000_000)
	return machine.TickInfo{
		Now:         time.Second,
		Interval:    10 * time.Millisecond,
		Sample:      s,
		PState:      tab.Max(),
		PStateIndex: tab.Len() - 1,
		Table:       tab,
	}
}

// --- extension-study benches ---

func BenchmarkExtFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).FeedbackExtension()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].OverFrac*100, "plain-%overlimit")
		b.ReportMetric(r.Rows[1].OverFrac*100, "fb-%overlimit")
		emit(b, i, r)
	}
}

func BenchmarkExtThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).ThermalStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].OverFrac*100, "unmanaged-%over")
		b.ReportMetric(r.Rows[2].MaxC, "predictive-maxC")
		emit(b, i, r)
	}
}

func BenchmarkExtDVFSvsThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).DVFSvsThrottling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].DVFSSave*100, "swim-dvfs-%save@75")
		b.ReportMetric(r.Rows[0].ThrottleSave*100, "swim-thr-%save@75")
		emit(b, i, r)
	}
}

func BenchmarkExtUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchCtx(b).UtilizationStudy()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Workload == "batch" {
				b.ReportMetric(row.OnDemandSave*100, "batch-od-%save")
				b.ReportMetric(row.PSSave*100, "batch-ps-%save")
			}
		}
		emit(b, i, r)
	}
}

// BenchmarkEnergyDelayProducts reports PS's EDP/ED2P gains over full
// speed on a memory-bound workload — the voltage-scaling payoff in the
// standard efficiency metrics.
func BenchmarkEnergyDelayProducts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := spec.ByName("swim")
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(machine.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		base, err := m.Run(w, nil)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := control.NewPowerSave(control.PSConfig{Floor: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		run, err := m.Run(w, ps)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.EDP()/run.EDP(), "EDP-gain")
		b.ReportMetric(base.ED2P()/run.ED2P(), "ED2P-gain")
	}
}
