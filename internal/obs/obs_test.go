package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aapm/internal/telemetry"
)

func TestSampleHashDeterministic(t *testing.T) {
	for _, id := range []string{"t0011223344556677", "tdeadbeefcafef00d", "x"} {
		first := sampleHash(id, 0.37)
		for i := 0; i < 10; i++ {
			if sampleHash(id, 0.37) != first {
				t.Fatalf("sampleHash(%q) flapped", id)
			}
		}
	}
	if sampleHash("anything", 0) {
		t.Fatal("rate 0 must never sample")
	}
	if !sampleHash("anything", 1) {
		t.Fatal("rate 1 must always sample")
	}
}

func TestSampleHashDistribution(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0.5, MaxTraces: 20000})
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if tr.Start("j", "", nil).Sampled() {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("0.5 sampling hit fraction %.3f, want ~0.5", frac)
	}
}

func TestTracerUnsampledStillMintsID(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	h := tr.Start("j1234", "acme", nil)
	if h == nil || h.Sampled() {
		t.Fatalf("want non-nil unsampled trace, got %+v", h)
	}
	if !strings.HasPrefix(h.TraceID(), "t") || len(h.TraceID()) != 17 {
		t.Fatalf("trace ID %q, want t+16 hex", h.TraceID())
	}
	h.Record(Span{Name: "intake"})
	if _, _, ok := tr.Spans(h.TraceID()); ok {
		t.Fatal("unsampled trace must not enter the span store")
	}
}

func TestTracerTenantRateOverride(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0, TenantRate: map[string]float64{"vip": 1}})
	if tr.Start("j", "other", nil).Sampled() {
		t.Fatal("default rate 0 sampled a non-override tenant")
	}
	if !tr.Start("j", "vip", nil).Sampled() {
		t.Fatal("tenant override rate 1 did not sample")
	}
}

func TestTracerSpanRingBounds(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, MaxSpansPerTrace: 4})
	h := tr.Start("job", "", nil)
	for i := 0; i < 10; i++ {
		h.Record(Span{Name: string(rune('a' + i))})
	}
	spans, dropped, ok := tr.Spans(h.TraceID())
	if !ok {
		t.Fatal("trace missing from store")
	}
	if len(spans) != 4 || dropped != 6 {
		t.Fatalf("got %d spans dropped %d, want 4 dropped 6", len(spans), dropped)
	}
	// Oldest-first unrolling: the last four recorded names, in order.
	want := []string{"g", "h", "i", "j"}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Fatalf("span[%d] = %q, want %q", i, s.Name, want[i])
		}
	}
}

func TestTracerTraceEviction(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 1, MaxTraces: 2})
	a := tr.Start("a", "", nil)
	b := tr.Start("b", "", nil)
	c := tr.Start("c", "", nil) // evicts a
	if _, _, ok := tr.Spans(a.TraceID()); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, h := range []*Trace{b, c} {
		if _, _, ok := tr.Spans(h.TraceID()); !ok {
			t.Fatalf("trace %s missing", h.TraceID())
		}
	}
	// Recording on the evicted trace must be safe and a no-op.
	a.Record(Span{Name: "late"})
}

func TestTracerExportTee(t *testing.T) {
	var buf bytes.Buffer
	tw := telemetry.NewTraceEventWriter(&buf)
	tr := NewTracer(Config{SampleRate: 1, Export: tw})
	h := tr.Start("jx", "acme", nil)
	h.Record(Span{Name: "run", VirtUS: 100, VirtDurUS: 50, Attrs: map[string]float64{"power_w": 12}})
	if tw.Events() != 2 { // process_name metadata + the span
		t.Fatalf("exported %d events, want 2", tw.Events())
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var events []telemetry.TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("exported stream is not valid trace-event JSON: %v\n%s", err, buf.String())
	}
	var span *telemetry.TraceEvent
	for i := range events {
		if events[i].Ph == "X" && events[i].Name == "run" {
			span = &events[i]
		}
	}
	if span == nil {
		t.Fatalf("no X span event exported; got %+v", events)
	}
	if span.TS != 100 || span.Dur != 50 || span.Args["power_w"] != 12.0 {
		t.Fatalf("exported span fields wrong: %+v", span)
	}
}

func TestTraceRecordTeesFlight(t *testing.T) {
	fl := NewFlightRecorder(8)
	tr := NewTracer(Config{SampleRate: 0}) // unsampled: flight still sees spans
	h := tr.Start("j", "", fl)
	h.Record(Span{Name: "queue-wait", WallDurUS: 123})
	d := fl.Dump()
	if len(d.Events) != 1 || d.Events[0].Kind != "span" || d.Events[0].Name != "queue-wait" || d.Events[0].Value != 123 {
		t.Fatalf("flight dump %+v", d)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	h := tr.Start("j", "", nil)
	if h != nil {
		t.Fatal("nil tracer must return nil trace")
	}
	h.Record(Span{Name: "x"})
	if h.Sampled() || h.TraceID() != "" {
		t.Fatal("nil trace accessors")
	}
	var fl *FlightRecorder
	fl.Note(FlightEvent{Kind: "state"})
	if d := fl.Dump(); len(d.Events) != 0 {
		t.Fatal("nil flight dump")
	}
	var e *Engine
	e.Observe("x", true)
	e.ObserveLatency("x", 1)
	e.ObserveKey("x", "k")
	if st := e.Status(); !st.Healthy {
		t.Fatal("nil engine must be healthy")
	}
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("nil engine Healthy")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil trace")
	}
	tr := NewTracer(Config{SampleRate: 1})
	h := tr.Start("j", "", nil)
	ctx := NewContext(context.Background(), h)
	if FromContext(ctx) != h {
		t.Fatal("context round trip lost the trace")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("nil trace must not wrap the context")
	}
}

func TestFromContextAllocs(t *testing.T) {
	tr := NewTracer(Config{SampleRate: 0})
	h := tr.Start("j", "", nil)
	ctx := NewContext(context.Background(), h)
	allocs := testing.AllocsPerRun(100, func() {
		got := FromContext(ctx)
		if got.Sampled() {
			t.Fatal("unexpected sampled")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext allocates %.1f per call, want 0", allocs)
	}
}

func TestFlightRingWraparound(t *testing.T) {
	fl := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		fl.Note(FlightEvent{Kind: "state", Name: string(rune('a' + i)), Wall: time.Unix(int64(i), 0)})
	}
	d := fl.Dump()
	if d.Capacity != 3 || d.Dropped != 2 || len(d.Events) != 3 {
		t.Fatalf("dump %+v", d)
	}
	for i, want := range []string{"c", "d", "e"} {
		if d.Events[i].Name != want {
			t.Fatalf("event[%d] = %q, want %q (oldest first)", i, d.Events[i].Name, want)
		}
	}
}

func TestFlightStampsWall(t *testing.T) {
	fl := NewFlightRecorder(0)
	fl.Note(FlightEvent{Kind: "state", Name: "queued"})
	d := fl.Dump()
	if d.Capacity != 128 {
		t.Fatalf("default capacity %d, want 128", d.Capacity)
	}
	if d.Events[0].Wall.IsZero() {
		t.Fatal("Note must stamp a zero Wall")
	}
}

// fakeClock drives the SLO engine deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) step(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock            { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func objState(t *testing.T, e *Engine, name string) ObjectiveStatus {
	t.Helper()
	for _, o := range e.Status().Objectives {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("objective %q missing", name)
	return ObjectiveStatus{}
}

func TestSLOEventsBurnAndBreach(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine([]Objective{{
		Name: "errors", Kind: KindEvents, Budget: 0.1,
		FastWindow: time.Minute, SlowWindow: 10 * time.Minute,
		BurnThreshold: 2, MinSamples: 5,
	}}, clk.now)

	for i := 0; i < 10; i++ {
		e.Observe("errors", true)
	}
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("all-good stream must be healthy")
	}
	// 10 good + 10 bad = 50% bad, burn = 0.5/0.1 = 5 on both windows.
	for i := 0; i < 10; i++ {
		e.Observe("errors", false)
	}
	ok, reasons := e.Healthy()
	if ok || len(reasons) != 1 {
		t.Fatalf("want breach with one reason, got ok=%v reasons=%v", ok, reasons)
	}
	st := objState(t, e, "errors")
	if st.FastBurn != 5 || st.SlowBurn != 5 || !st.Breaching {
		t.Fatalf("burns %v/%v breaching %v, want 5/5 true", st.FastBurn, st.SlowBurn, st.Breaching)
	}
	if st.PeakFastBurn < 5 {
		t.Fatalf("peak fast burn %v, want >= 5", st.PeakFastBurn)
	}

	// Advance past the fast window: fast clears, slow still burns → no
	// breach (both windows must burn).
	clk.step(2 * time.Minute)
	st = objState(t, e, "errors")
	if st.FastBurn != 0 || st.SlowBurn != 5 {
		t.Fatalf("after fast expiry: fast %v slow %v, want 0/5", st.FastBurn, st.SlowBurn)
	}
	if st.Breaching {
		t.Fatal("fast window clear must end the breach")
	}
	// Advance past the slow window: everything expires.
	clk.step(11 * time.Minute)
	st = objState(t, e, "errors")
	if st.SlowBurn != 0 || st.SlowSamples != 0 {
		t.Fatalf("after slow expiry: %+v", st)
	}
	// Peaks persist as high-water marks.
	if st.PeakFastBurn < 5 || st.PeakSlowBurn < 5 {
		t.Fatalf("peaks must persist: %+v", st)
	}
}

func TestSLOMinSamplesGate(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine([]Objective{{
		Name: "errors", Kind: KindEvents, Budget: 0.01,
		FastWindow: time.Minute, SlowWindow: time.Minute,
		BurnThreshold: 1, MinSamples: 10,
	}}, clk.now)
	for i := 0; i < 9; i++ {
		e.Observe("errors", false)
	}
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("below MinSamples must not breach even at 100% bad")
	}
	e.Observe("errors", false)
	if ok, _ := e.Healthy(); ok {
		t.Fatal("at MinSamples with 100% bad must breach")
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine([]Objective{{
		Name: "submit_p99", TargetSec: 0.25, Budget: 0.5,
		FastWindow: time.Minute, SlowWindow: time.Minute,
		BurnThreshold: 1.5, MinSamples: 4,
	}}, clk.now)
	st := objState(t, e, "submit_p99")
	if st.Kind != KindLatency {
		t.Fatalf("TargetSec>0 must default kind to latency, got %q", st.Kind)
	}
	e.ObserveLatency("submit_p99", 0.1)
	e.ObserveLatency("submit_p99", 0.2)
	e.ObserveLatency("submit_p99", 0.9)
	e.ObserveLatency("submit_p99", 1.5)
	// 2/4 over target = 50% bad, burn = 0.5/0.5 = 1 < 1.5.
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("burn 1 below threshold 1.5 must be healthy")
	}
	e.ObserveLatency("submit_p99", 2)
	e.ObserveLatency("submit_p99", 2)
	// 4/6 bad, burn = (4/6)/0.5 ≈ 1.33 < 1.5 still healthy.
	e.ObserveLatency("submit_p99", 2)
	e.ObserveLatency("submit_p99", 2)
	// 6/8 bad, burn = 1.5 → breach.
	if ok, _ := e.Healthy(); ok {
		t.Fatal("burn at threshold must breach")
	}
}

func TestSLOShareObjective(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine([]Objective{{
		Name: "fairness", Kind: KindShare, MaxDeviation: 0.1,
		Weights:    map[string]float64{"a": 2, "b": 1},
		FastWindow: time.Minute, SlowWindow: time.Minute,
		BurnThreshold: 1, MinSamples: 6,
	}}, clk.now)
	// Perfect 2:1 split → zero deviation.
	for i := 0; i < 8; i++ {
		e.ObserveKey("fairness", "a")
	}
	for i := 0; i < 4; i++ {
		e.ObserveKey("fairness", "b")
	}
	st := objState(t, e, "fairness")
	if st.FastBurn != 0 || st.Breaching {
		t.Fatalf("perfect split burn %v breaching %v", st.FastBurn, st.Breaching)
	}
	// Starve b: a=20, b=4 → share a 5/6 vs want 2/3, dev 1/6 → burn ~1.67.
	for i := 0; i < 12; i++ {
		e.ObserveKey("fairness", "a")
	}
	st = objState(t, e, "fairness")
	if !st.Breaching {
		t.Fatalf("starved tenant must breach: %+v", st)
	}
}

func TestSLOShareSingleKeyNoBreach(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine([]Objective{{
		Name: "fairness", Kind: KindShare, MaxDeviation: 0.01,
		FastWindow: time.Minute, SlowWindow: time.Minute,
		BurnThreshold: 1, MinSamples: 1,
	}}, clk.now)
	for i := 0; i < 50; i++ {
		e.ObserveKey("fairness", "only")
	}
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("one active tenant cannot be unfair to itself")
	}
}

func TestSLOUnknownObjectiveIgnored(t *testing.T) {
	e := NewEngine(nil, nil)
	e.Observe("nope", false)
	e.ObserveLatency("nope", 99)
	e.ObserveKey("nope", "k")
	if ok, _ := e.Healthy(); !ok {
		t.Fatal("engine with no objectives must be healthy")
	}
}
