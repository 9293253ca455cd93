package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"aapm/internal/obs"
	"aapm/internal/telemetry"
)

// fleetSpec is a small hierarchical job that crosses reallocation
// epochs (gzip ×8 runs ~109 lockstep intervals against the default
// 50-tick epoch).
func fleetSpec(tenant string) JobSpec {
	return JobSpec{
		Workload: "gzip", Seed: 7, Nodes: 8, BudgetW: 120,
		Levels: 2, Fanout: 4, Iterations: 1, Tenant: tenant,
	}
}

// TestTraceFollowsFleetJob is the end-to-end tracing acceptance: with
// the default 1% head sampling plus a per-tenant override, a submitted
// fleet job can be followed from intake to per-shard kernel steps via
// /api/trace/{jobID}, the Perfetto rendering parses, the NDJSON event
// stream carries the job/trace IDs and gap-free sequence numbers, and
// an unsampled tenant's job yields an ID-only trace.
func TestTraceFollowsFleetJob(t *testing.T) {
	_, ts := newTestService(t, Config{
		ProgressEvery:   20,
		TraceSampleRate: 0.01,
		TenantTraceRate: map[string]float64{"traced": 1, "quiet": 0},
	})
	code, st := postJob(t, ts.URL, fleetSpec("traced"))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if st.TraceID == "" || !strings.HasPrefix(st.TraceID, "t") {
		t.Fatalf("submit status trace_id = %q", st.TraceID)
	}
	if final := waitTerminal(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("fleet job = %s (%s)", final.State, final.Error)
	}

	// The span store: intake → queue-wait → per-level reallocate →
	// shard windows → run, all on one trace.
	code, _, body := getBody(t, ts.URL+"/api/trace/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", code, body)
	}
	var tr struct {
		Job     string     `json:"job"`
		TraceID string     `json:"trace_id"`
		Sampled bool       `json:"sampled"`
		Dropped uint64     `json:"dropped"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Job != st.ID || tr.TraceID != st.TraceID || !tr.Sampled {
		t.Fatalf("trace header = %+v", tr)
	}
	byName := map[string]int{}
	for _, s := range tr.Spans {
		byName[s.Name]++
		if s.Job != st.ID {
			t.Fatalf("span %q carries job %q, want %q", s.Name, s.Job, st.ID)
		}
	}
	for _, want := range []string{"intake", "queue-wait", "run", "reallocate", "shard-step"} {
		if byName[want] == 0 {
			t.Errorf("no %q span; got %v", want, byName)
		}
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "intake" {
		t.Errorf("first span = %+v, want intake", tr.Spans[:min(1, len(tr.Spans))])
	}

	// The Perfetto rendering is a valid Chrome trace-event array with
	// the spans as complete ("X") events.
	code, _, pb := getBody(t, ts.URL+"/api/trace/"+st.ID+"?format=perfetto")
	if code != http.StatusOK {
		t.Fatalf("perfetto fetch = %d", code)
	}
	var events []telemetry.TraceEvent
	if err := json.Unmarshal(pb, &events); err != nil {
		t.Fatalf("perfetto output does not parse: %v", err)
	}
	var xs, meta int
	for _, ev := range events {
		switch ev.Ph {
		case "X":
			xs++
		case "M":
			meta++
		}
	}
	if xs != len(tr.Spans) || meta == 0 {
		t.Errorf("perfetto events: %d X (want %d), %d metadata", xs, len(tr.Spans), meta)
	}

	// Every NDJSON event line carries the job and trace IDs and a
	// gap-free monotonically increasing sequence number.
	code, _, eb := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events fetch = %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(eb))
	var prev uint64
	lines := 0
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Seq   uint64 `json:"seq"`
			Job   string `json:"job"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Job != st.ID || ev.Trace != st.TraceID {
			t.Fatalf("event line ids = %q/%q, want %q/%q", ev.Job, ev.Trace, st.ID, st.TraceID)
		}
		if ev.Seq != prev+1 {
			t.Fatalf("event seq %d follows %d: dropped or reordered", ev.Seq, prev)
		}
		prev = ev.Seq
		lines++
	}
	if lines < 3 {
		t.Fatalf("only %d event lines", lines)
	}

	// A healthy, done job retains no flight dump.
	if code, _, _ := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/flight"); code != http.StatusNotFound {
		t.Errorf("flight on healthy done job = %d, want 404", code)
	}

	// The quiet tenant's job still mints a trace ID but records no
	// spans, and has no Perfetto rendering.
	_, qst := postJob(t, ts.URL, fleetSpec("quiet"))
	if waitTerminal(t, ts.URL, qst.ID).State != StateDone {
		t.Fatal("quiet job did not finish")
	}
	if qst.TraceID == "" || qst.TraceID == st.TraceID {
		t.Fatalf("quiet trace_id = %q", qst.TraceID)
	}
	code, _, body = getBody(t, ts.URL+"/api/trace/"+qst.ID)
	if code != http.StatusOK {
		t.Fatalf("quiet trace fetch = %d", code)
	}
	var qtr struct {
		Sampled bool       `json:"sampled"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &qtr); err != nil {
		t.Fatal(err)
	}
	if qtr.Sampled || len(qtr.Spans) != 0 {
		t.Errorf("quiet trace = sampled %t, %d spans", qtr.Sampled, len(qtr.Spans))
	}
	if code, _, _ := getBody(t, ts.URL+"/api/trace/"+qst.ID+"?format=perfetto"); code != http.StatusNotFound {
		t.Errorf("perfetto for unsampled trace = %d, want 404", code)
	}

	// Unknown job.
	if code, _, _ := getBody(t, ts.URL+"/api/trace/nope"); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}
}

// TestHealthzFlipsOnSLOBurn injects an SLO burn — a tight error-rate
// objective plus a job forced to blow its deadline — and checks the
// burn-rate plumbing end to end: /healthz flips to 503 naming the
// breach, /api/slo reports the burning objective with its peaks, and
// the failed job's flight-recorder dump is retrievable from the store.
func TestHealthzFlipsOnSLOBurn(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Workers:    1,
		JobTimeout: time.Millisecond,
		beforeRun:  func(ctx context.Context, _ *Job) { <-ctx.Done() },
		SLOObjectives: []obs.Objective{{
			Name: SLOErrorRate, Kind: obs.KindEvents,
			Budget: 0.001, BurnThreshold: 1, MinSamples: 1,
			FastWindow: time.Minute, SlowWindow: time.Hour,
		}},
	})
	_ = svc

	// Healthy before any sample.
	code, _, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz before load = %d: %s", code, body)
	}

	_, st := postJob(t, ts.URL, quickSpec())
	if final := waitTerminal(t, ts.URL, st.ID); final.State != StateFailed {
		t.Fatalf("forced job = %s, want failed", final.State)
	}

	code, _, body = getBody(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after burn = %d: %s", code, body)
	}
	var hz struct {
		Healthy bool     `json:"healthy"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Healthy || len(hz.Reasons) == 0 || !strings.Contains(hz.Reasons[0], SLOErrorRate) {
		t.Fatalf("healthz body = %+v", hz)
	}

	code, _, body = getBody(t, ts.URL+"/api/slo")
	if code != http.StatusOK {
		t.Fatalf("slo fetch = %d", code)
	}
	var slo obs.SLOStatus
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatal(err)
	}
	if slo.Healthy {
		t.Error("slo status healthy despite burn")
	}
	found := false
	for _, o := range slo.Objectives {
		if o.Name != SLOErrorRate {
			continue
		}
		found = true
		if !o.Breaching || o.FastBurn < 1 || o.PeakFastBurn < o.FastBurn || o.Reason == "" {
			t.Errorf("error_rate status = %+v", o)
		}
	}
	if !found {
		t.Fatal("error_rate objective missing from /api/slo")
	}

	// The failure dumped the flight ring into the store.
	code, _, body = getBody(t, ts.URL+"/api/jobs/"+st.ID+"/flight")
	if code != http.StatusOK {
		t.Fatalf("flight fetch = %d: %s", code, body)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	states := map[string]bool{}
	spans := 0
	for _, e := range dump.Events {
		switch e.Kind {
		case "state":
			states[e.Name] = true
		case "span":
			spans++
		}
	}
	for _, want := range []string{"queued", "running", "failed"} {
		if !states[want] {
			t.Errorf("flight dump missing %q state event; got %v", want, states)
		}
	}
	if spans == 0 {
		t.Error("flight dump carries no span events")
	}
}

// TestTenantSeriesCapCollapsesToOther pins the 64-series tenant label
// cap: past maxTenantSeries distinct tenants, every per-tenant family
// deterministically routes new tenants to the shared "other" series,
// and the Prometheus exposition stays byte-stable under cap pressure.
func TestTenantSeriesCapCollapsesToOther(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := newServeTelemetry(reg)
	for i := 0; i < 100; i++ {
		tel.tenantCompleted(fmt.Sprintf("t%02d", i))
	}
	// The cap is shared across the per-tenant families: an over-cap
	// tenant collapses in every family, an under-cap one in none.
	tel.tenantRateLimited("t99")
	tel.tenantRateLimited("t10")
	tel.setTenantDepth("t99", 5)
	tel.setTenantDepth("t10", 2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.Bytes()
	count := func(family string) (series, other int, otherVal string) {
		for _, line := range strings.Split(string(first), "\n") {
			if !strings.HasPrefix(line, family+"{") {
				continue
			}
			series++
			if strings.Contains(line, `tenant="other"`) {
				other++
				otherVal = strings.TrimSpace(line[strings.LastIndex(line, " ")+1:])
			}
		}
		return
	}
	if series, other, val := count(MetricTenantDone); series != maxTenantSeries+1 || other != 1 || val != "36" {
		t.Errorf("%s: %d series, %d other (value %s); want %d series with other=36",
			MetricTenantDone, series, other, val, maxTenantSeries+1)
	}
	if series, other, val := count(MetricRateLimited); series != 2 || other != 1 || val != "1" {
		t.Errorf("%s: %d series, %d other (value %s); want t10 + other=1",
			MetricRateLimited, series, other, val)
	}
	if series, other, val := count(MetricTenantDepth); series != 2 || other != 1 || val != "5" {
		t.Errorf("%s: %d series, %d other (value %s); want t10 + other=5",
			MetricTenantDepth, series, other, val)
	}
	if !strings.Contains(string(first), MetricTenantDone+`{tenant="t63"}`) {
		t.Error("tenant t63 (last under the cap) lost its own series")
	}
	if strings.Contains(string(first), `tenant="t64"`) {
		t.Error("tenant t64 (first over the cap) minted its own series")
	}

	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf.Bytes()) {
		t.Error("exposition not byte-stable across renders under cap pressure")
	}
}
