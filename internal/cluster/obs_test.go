package cluster

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"aapm/internal/obs"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
)

// exposition renders the registry's Prometheus text format.
func exposition(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shortNodes builds a small population trimmed for test runtime.
func shortNodes(t *testing.T, names ...string) []Node {
	t.Helper()
	out := make([]Node, len(names))
	for i, n := range names {
		w, err := spec.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		w.Iterations = 1
		out[i] = Node{Workload: w}
	}
	return out
}

// sampledCtx returns a context carrying an always-sampled trace plus
// the tracer holding its spans.
func sampledCtx(job string) (context.Context, *obs.Tracer, *obs.Trace) {
	tracer := obs.NewTracer(obs.Config{SampleRate: 1})
	tr := tracer.Start(job, "test", nil)
	return obs.NewContext(context.Background(), tr), tracer, tr
}

// TestClusterTraceSpans proves the coordinator's span layer is purely
// observational — traces from a run with a sampled job trace attached
// are byte-identical to an untraced run — and that the trace carries
// the epoch structure: one level-0 reallocate span per epoch, with the
// epoch's demand averages, plus per-worker shard-step windows.
func TestClusterTraceSpans(t *testing.T) {
	cfg := Config{
		BudgetW:    30,
		Nodes:      shortNodes(t, "gzip", "crafty"),
		Seed:       3,
		Chain:      sensor.NIDefault(),
		EpochTicks: 5,
		Workers:    2,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, tracer, tr := sampledCtx("jobA")
	cfg.Nodes = shortNodes(t, "gzip", "crafty")
	traced, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tracesCSV(t, plain), tracesCSV(t, traced)) {
		t.Error("tracing changed the simulation traces")
	}

	spans, dropped, ok := tracer.Spans(tr.TraceID())
	if !ok {
		t.Fatal("trace not found in store")
	}
	if dropped != 0 {
		t.Errorf("dropped %d spans with default ring", dropped)
	}
	var reallocs, shardSteps int
	workersSeen := map[float64]bool{}
	for _, s := range spans {
		switch s.Name {
		case "reallocate":
			reallocs++
			if s.Attrs["budget_w"] != cfg.BudgetW {
				t.Errorf("reallocate budget_w = %v, want %v", s.Attrs["budget_w"], cfg.BudgetW)
			}
			if s.Attrs["level"] != 0 || s.Attrs["entities"] != 2 {
				t.Errorf("reallocate level/entities = %v/%v, want 0/2", s.Attrs["level"], s.Attrs["entities"])
			}
			if w, ok := s.Attrs["avg_node_power_w"]; !ok || w <= 0 || w > cfg.BudgetW {
				t.Errorf("reallocate avg_node_power_w = %v (present %v), want within (0, budget]", w, ok)
			}
			if dpc, ok := s.Attrs["avg_node_dpc"]; !ok || dpc <= 0 {
				t.Errorf("reallocate avg_node_dpc = %v (present %v), want positive", dpc, ok)
			}
		case "shard-step":
			shardSteps++
			workersSeen[s.Attrs["worker"]] = true
			if s.Attrs["workers"] != 2 {
				t.Errorf("shard-step workers = %v, want 2", s.Attrs["workers"])
			}
			if s.VirtDurUS <= 0 || s.Attrs["ticks"] <= 0 {
				t.Errorf("shard-step window degenerate: %+v", s)
			}
		}
	}
	if len(traced.Runs[0].Rows) <= cfg.EpochTicks {
		t.Fatalf("run too short to cross an epoch: %d ticks", len(traced.Runs[0].Rows))
	}
	if reallocs == 0 || reallocs != traced.Epochs {
		t.Errorf("%d reallocate spans for %d epochs, want one per epoch", reallocs, traced.Epochs)
	}
	if shardSteps == 0 || !workersSeen[0] || !workersSeen[1] {
		t.Errorf("shard-step spans missing workers: %d spans, seen %v", shardSteps, workersSeen)
	}
}

// TestFleetTraceSpansPerLevel drives the hierarchy with a sampled
// trace: byte-identical node traces, one reallocate span per level per
// epoch (with the tree geometry in the attrs), and shard windows.
func TestFleetTraceSpansPerLevel(t *testing.T) {
	cfg := FleetConfig{
		BudgetW:      120,
		Nodes:        SyntheticFleet(8, 40),
		Seed:         1,
		Levels:       2,
		Fanout:       4,
		EpochTicks:   10,
		Workers:      2,
		RetainTraces: true,
	}
	plain, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, tracer, tr := sampledCtx("jobF")
	cfg.Nodes = SyntheticFleet(8, 40)
	traced, err := RunFleetContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pb, tb bytes.Buffer
	for i := range plain.Runs {
		if err := plain.Runs[i].WriteCSV(&pb); err != nil {
			t.Fatal(err)
		}
		if err := traced.Runs[i].WriteCSV(&tb); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(pb.Bytes(), tb.Bytes()) {
		t.Error("tracing changed the fleet traces")
	}
	if traced.Epochs == 0 {
		t.Fatal("run crossed no reallocation epochs")
	}

	spans, _, ok := tracer.Spans(tr.TraceID())
	if !ok {
		t.Fatal("trace not found in store")
	}
	levels := map[float64]int{}
	shardSteps := 0
	for _, s := range spans {
		switch s.Name {
		case "reallocate":
			levels[s.Attrs["level"]]++
			switch s.Attrs["level"] {
			case 0:
				if s.Attrs["entities"] != 8 {
					t.Errorf("level 0 entities = %v, want 8", s.Attrs["entities"])
				}
			case 1:
				if s.Attrs["entities"] != 2 {
					t.Errorf("level 1 entities = %v, want 2", s.Attrs["entities"])
				}
			}
		case "shard-step":
			shardSteps++
		}
	}
	if levels[0] != traced.Epochs || levels[1] != traced.Epochs {
		t.Errorf("reallocate spans per level = %v, want %d at each of 2 levels", levels, traced.Epochs)
	}
	if shardSteps == 0 {
		t.Error("no shard-step spans recorded")
	}
}

// TestTracingOffNoAllocs pins the tracing-off cost structure: with no
// trace in the context (or an unsampled one) the span recorder is nil,
// and every call the coordinator makes on that nil recorder — plus the
// context lookup itself — allocates nothing.
func TestTracingOffNoAllocs(t *testing.T) {
	tracer := obs.NewTracer(obs.Config{SampleRate: 0})
	unsampled := tracer.Start("job", "t", nil)
	if cs := newCoordSpans(unsampled, 10*time.Millisecond, nil, 2, []int{2}); cs != nil {
		t.Fatal("unsampled trace built a span recorder")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := obs.FromContext(ctx)
		cs := newCoordSpans(tr, 10*time.Millisecond, nil, 2, []int{2})
		cs.fleetEpoch(50, 30, nil)
		cs.levelDur(0, time.Millisecond)
		cs.finish(60)
		_ = cs.active()
	})
	if allocs != 0 {
		t.Errorf("tracing-off path allocates %.1f per tick, want 0", allocs)
	}
}

// TestTracingOffOverhead is the tracing-off wall-clock budget, in the
// style of the telemetry-off budget: a run whose context carries an
// unsampled trace must cost ≤5% per interval versus a run with no
// trace at all. Min-of-trials on both sides, interleaved and retried
// so drifting CI load hits both configurations alike.
func TestTracingOffOverhead(t *testing.T) {
	const (
		trials   = 3
		attempts = 4
		budget   = 1.05
	)
	mk := func() Config {
		return Config{
			BudgetW:    30,
			Nodes:      shortNodes(t, "gzip", "crafty"),
			Seed:       3,
			Chain:      sensor.NIDefault(),
			EpochTicks: 5,
			Workers:    1,
		}
	}
	cost := func(ctx context.Context) time.Duration {
		var best time.Duration
		for trial := 0; trial < trials; trial++ {
			cfg := mk()
			t0 := time.Now()
			res, err := RunContext(ctx, cfg)
			elapsed := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if res.CoordWall.N == 0 {
				t.Fatal("degenerate run")
			}
			per := elapsed / time.Duration(res.CoordWall.N)
			if trial == 0 || per < best {
				best = per
			}
		}
		return best
	}
	tracer := obs.NewTracer(obs.Config{SampleRate: 0})
	var base, traced time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		base = cost(context.Background())
		traced = cost(obs.NewContext(context.Background(),
			tracer.Start(fmt.Sprintf("job%d", attempt), "t", nil)))
		if float64(traced) <= float64(base)*budget {
			return
		}
	}
	t.Errorf("unsampled-trace per-interval cost %v vs bare %v exceeds the %.0f%% budget",
		traced, base, (budget-1)*100)
}

// TestFleetGroupSeriesCap pins the 64-series cap on per-group fleet
// telemetry: a level wider than maxGroupSeries gets no per-group
// budget gauges and aggregates its over-budget counts under
// group="all", deterministically, and the Prometheus exposition stays
// byte-stable under that cap pressure.
func TestFleetGroupSeriesCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	shape := fleetShapeOf(200, 2, 2) // counts[1] = 100 > maxGroupSeries
	if shape.counts[1] <= maxGroupSeries {
		t.Fatalf("test geometry under the cap: %d groups", shape.counts[1])
	}
	ft := newFleetTelemetry(reg, 400, 2, shape, make([]float64, shape.counts[1]))
	if ft.overBy[1] != nil || ft.budgetBy[1] != nil {
		t.Fatal("per-group series minted past the cap")
	}
	if ft.overAll[1] == nil {
		t.Fatal("no aggregate over-budget series for the capped level")
	}
	budgets := [][]float64{nil, make([]float64, shape.counts[1])}
	for g := range budgets[1] {
		budgets[1][g] = 4
	}
	// Three groups over budget in one tick → 3 aggregated increments.
	ft.groupW[1][5] = 10
	ft.groupW[1][42] = 10
	ft.groupW[1][99] = 10
	ft.tick(30, false, true, budgets)
	ft.epoch(budgets)

	first := exposition(t, reg)
	if !bytes.Contains(first, []byte(`aapm_fleet_over_budget_intervals_total{level="1",group="all"} 3`)) {
		t.Errorf("aggregate over-budget series missing or wrong:\n%s", first)
	}
	if bytes.Contains(first, []byte(`aapm_fleet_group_budget_watts{level="1"`)) {
		t.Error("per-group budget gauges minted past the cap")
	}
	second := exposition(t, reg)
	if !bytes.Equal(first, second) {
		t.Error("exposition not byte-stable across renders under cap pressure")
	}

	// Below the cap the same geometry gets real per-group series.
	reg2 := telemetry.NewRegistry()
	shape2 := fleetShapeOf(64, 2, 2) // counts[1] = 32
	ft2 := newFleetTelemetry(reg2, 400, 2, shape2, make([]float64, shape2.counts[1]))
	if len(ft2.overBy[1]) != shape2.counts[1] || len(ft2.budgetBy[1]) != shape2.counts[1] {
		t.Errorf("below-cap level minted %d/%d series, want %d",
			len(ft2.overBy[1]), len(ft2.budgetBy[1]), shape2.counts[1])
	}
	if ft2.overAll[1] != nil {
		t.Error("below-cap level got the aggregate series")
	}
}
