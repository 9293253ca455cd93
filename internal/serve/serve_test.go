package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// quickSpec is the fast canonical job most tests submit: one ammp
// iteration under the paper's PM limit (the golden-fixture config).
func quickSpec() JobSpec {
	return JobSpec{Workload: "ammp", Governor: "pm:limit=14.5", Seed: 1, Iterations: 1}
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, ts
}

// postJob submits a spec over HTTP and returns the response status
// code and decoded job status.
func postJob(t *testing.T, base string, js JobSpec) (int, Status) {
	t.Helper()
	body, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitTerminal polls a job's status until it leaves queued/running.
func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/api/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestLifecycleEndToEnd walks the whole surface: submit, poll, stream,
// fetch the result, list.
func TestLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Config{ProgressEvery: 10})
	code, st := postJob(t, ts.URL, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status body = %+v", st)
	}
	// The normalized spec is echoed back.
	if st.Spec.Governor != "pm:limit=14.5" || st.Spec.Chain != ChainNI || st.Spec.Nodes != 1 {
		t.Errorf("normalized spec = %+v", st.Spec)
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}

	// The event stream on a finished job replays history and ends with
	// the terminal state line.
	code, hdr, events := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	if len(lines) < 3 {
		t.Fatalf("event stream too short: %q", string(events))
	}
	var first, last progressEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.Type != "state" || first.State != StateQueued {
		t.Errorf("first event = %+v, want state/queued", first)
	}
	if last.Type != "state" || last.State != StateDone {
		t.Errorf("last event = %+v, want state/done", last)
	}
	var ticks int
	for _, l := range lines {
		var e progressEvent
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		if e.Type == "tick" {
			ticks++
			if e.FreqMHz <= 0 {
				t.Errorf("tick event without frequency: %+v", e)
			}
		}
	}
	if ticks == 0 {
		t.Error("no tick events in the stream")
	}

	// The result is the run summary.
	code, _, body := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status = %d: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != st.ID || res.Workload != "ammp" || res.AvgPowerW <= 0 || res.Ticks <= 0 {
		t.Errorf("result = %+v", res)
	}

	// Listing includes the job.
	code, _, listing := getBody(t, ts.URL+"/api/jobs")
	if code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	var all []Status
	if err := json.Unmarshal(listing, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("listing = %+v", all)
	}
}

func TestHTTPErrorSurface(t *testing.T) {
	_, ts := newTestService(t, Config{})
	// Unknown job: status, result, events, cancel.
	for _, path := range []string{"/api/jobs/jdeadbeef", "/api/jobs/jdeadbeef/result", "/api/jobs/jdeadbeef/events"} {
		if code, _, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	// Malformed and invalid specs.
	for _, body := range []string{"{", `{"nope":1}`, `{"workload":"nope"}`, `{"workload":"ammp","nodes":2}`} {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, resp.StatusCode)
		}
	}
	// Method checks.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/api/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, POST" {
		t.Errorf("PUT /api/jobs = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	// Result of an unfinished job conflicts.
	gate := make(chan struct{})
	started := make(chan string, 1)
	svc2 := New(Config{Workers: 1, beforeRun: func(_ context.Context, j *Job) { started <- j.ID; <-gate }})
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		close(gate)
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc2.Shutdown(ctx)
	}()
	_, st := postJob(t, ts2.URL, quickSpec())
	<-started
	if code, _, body := getBody(t, ts2.URL+"/api/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Errorf("result of running job = %d (%s), want 409", code, body)
	}
}

// TestSubmitRejectsBadRunSpec pins the 400s a dashboard-style run
// submission gets for a missing workload, an unparsable governor and
// a malformed seed: each is refused at intake, before any job exists.
func TestSubmitRejectsBadRunSpec(t *testing.T) {
	svc, ts := newTestService(t, Config{})
	for _, body := range []string{
		`{}`,
		`{"workload":"gzip","governor":"bogus"}`, `{"workload":"gzip","governor":"pm:limit=x"}`,
		`{"workload":"gzip","seed":"notanint"}`, `{"workload":"gzip","seed":"7abc"}`, `{"workload":"gzip","seed":0x10}`,
	} {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, resp.StatusCode)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Errorf("service holds %d jobs after rejected submissions, want 0", n)
	}
}

// TestDuplicateSubmitIsCacheHit pins idempotency: resubmitting the
// same canonical spec joins the existing job, counts a hit, and serves
// byte-identical result bytes.
func TestDuplicateSubmitIsCacheHit(t *testing.T) {
	svc, ts := newTestService(t, Config{})
	code, st := postJob(t, ts.URL, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	waitTerminal(t, ts.URL, st.ID)
	_, _, first := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/result")

	// Same spec with defaults spelled out: same job, no new run.
	dup := quickSpec()
	dup.Chain = ChainNI
	dup.Nodes = 1
	code, st2 := postJob(t, ts.URL, dup)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code)
	}
	if st2.ID != st.ID || st2.State != StateDone || st2.CacheHits != 1 {
		t.Errorf("duplicate status = %+v", st2)
	}
	_, _, second := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/result")
	if !bytes.Equal(first, second) {
		t.Error("cache hit result bytes differ from the original response")
	}
	if code, _ := postJob(t, ts.URL, quickSpec()); code != http.StatusOK {
		t.Errorf("third submit = %d, want 200", code)
	}
	if n := len(svc.List()); n != 1 {
		t.Errorf("service holds %d jobs, want 1", n)
	}
}

// TestQueueFullRejects429 pins the backpressure contract with workers
// held at a gate: depth+workers jobs are admitted, the next is
// rejected with 429 and a Retry-After header.
func TestQueueFullRejects429(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	svc, ts := newTestService(t, Config{
		QueueDepth: 2,
		Workers:    1,
		beforeRun:  func(_ context.Context, j *Job) { started <- j.ID; <-gate },
	})
	defer close(gate)

	// Job 1 occupies the worker; jobs 2 and 3 fill the queue.
	for seed := int64(1); seed <= 3; seed++ {
		js := quickSpec()
		js.Seed = seed
		if code, _ := postJob(t, ts.URL, js); code != http.StatusAccepted {
			t.Fatalf("seed %d submit = %d, want 202", seed, code)
		}
		if seed == 1 {
			<-started // worker is now blocked inside job 1
		}
	}
	if n := svc.QueueLen(); n != 2 {
		t.Fatalf("queue length = %d, want 2", n)
	}

	js := quickSpec()
	js.Seed = 4
	body, _ := json.Marshal(js)
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
}

// TestCancelQueuedAndRunning covers both DELETE paths of the state
// machine, plus resubmission of a canceled job.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	_, ts := newTestService(t, Config{
		Workers:   1,
		beforeRun: func(_ context.Context, j *Job) { started <- j.ID; <-gate },
	})
	defer close(gate)

	runningSpec := quickSpec()
	_, running := postJob(t, ts.URL, runningSpec)
	<-started
	queuedSpec := quickSpec()
	queuedSpec.Seed = 2
	_, queued := postJob(t, ts.URL, queuedSpec)

	del := func(id string) (int, map[string]any) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	// Queued job: canceled immediately, before any execution.
	if code, m := del(queued.ID); code != http.StatusOK || m["state"] != string(StateCanceled) {
		t.Fatalf("cancel queued = %d %v", code, m)
	}
	// Running job: the DELETE reports running; the worker resolves the
	// cancellation once it observes the context.
	if code, m := del(running.ID); code != http.StatusOK || m["state"] != string(StateRunning) {
		t.Fatalf("cancel running = %d %v", code, m)
	}
	gate <- struct{}{} // release the running job into its canceled context
	st := waitTerminal(t, ts.URL, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("running job after cancel = %s (%s)", st.State, st.Error)
	}
	// Result of a canceled job is a conflict naming the state.
	if code, _, body := getBody(t, ts.URL+"/api/jobs/"+running.ID+"/result"); code != http.StatusConflict || !strings.Contains(string(body), "canceled") {
		t.Errorf("result of canceled job = %d %s", code, body)
	}

	// Resubmitting the canceled spec re-enqueues the same job.
	code, st2 := postJob(t, ts.URL, runningSpec)
	if code != http.StatusAccepted || st2.ID != running.ID {
		t.Fatalf("resubmit after cancel = %d %+v", code, st2)
	}
	<-started
	gate <- struct{}{}
	if st := waitTerminal(t, ts.URL, running.ID); st.State != StateDone {
		t.Fatalf("re-run after cancel = %s (%s)", st.State, st.Error)
	}
}

// TestShutdownDrains pins graceful shutdown: intake closes, queued
// jobs abort without running, the running job completes.
func TestShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	svc := New(Config{Workers: 1, beforeRun: func(_ context.Context, j *Job) { started <- j.ID; <-gate }})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, running := postJob(t, ts.URL, quickSpec())
	<-started
	queuedSpec := quickSpec()
	queuedSpec.Seed = 2
	_, queued := postJob(t, ts.URL, queuedSpec)

	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		errc <- svc.Shutdown(ctx)
	}()

	// Intake is closed while the drain runs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		js := quickSpec()
		js.Seed = 3
		body, _ := json.Marshal(js)
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during shutdown = %d, want 503", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	close(gate) // let the running job finish
	if err := <-errc; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if j, _ := svc.Get(running.ID); j.State() != StateDone {
		t.Errorf("running job drained to %s, want done", j.State())
	}
	if j, _ := svc.Get(queued.ID); j.State() != StateAborted {
		t.Errorf("queued job drained to %s, want aborted", j.State())
	}
}

// TestShutdownForcedAbort pins the hard path: when the drain deadline
// expires, running jobs' contexts are canceled and they end aborted.
func TestShutdownForcedAbort(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	svc := New(Config{Workers: 1, beforeRun: func(_ context.Context, j *Job) { started <- j.ID; <-gate }})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Long enough that the drain deadline expires mid-run; the per-tick
	// context check then lands deterministically.
	js := quickSpec()
	js.Iterations = 100000
	_, st := postJob(t, ts.URL, js)
	<-started
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- svc.Shutdown(ctx) }()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	j, _ := svc.Get(st.ID)
	if j.State() != StateAborted {
		t.Errorf("job after forced shutdown = %s, want aborted", j.State())
	}
}

// TestGoldenTraceThroughServe pins end-to-end determinism: the golden
// fixture configuration submitted as a job yields the exact bytes of
// testdata/golden_pm_ammp.csv through the serve path.
func TestGoldenTraceThroughServe(t *testing.T) {
	_, ts := newTestService(t, Config{})
	_, st := postJob(t, ts.URL, quickSpec())
	if final := waitTerminal(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("job = %s (%s)", final.State, final.Error)
	}
	code, hdr, got := getBody(t, ts.URL+"/api/jobs/"+st.ID+"/result?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv result = %d: %s", code, got)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("csv content type = %q", ct)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_pm_ammp.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("serve-path trace differs from the golden fixture (%d vs %d bytes)", len(got), len(want))
	}
}

// TestClusterAndExperimentJobs exercises the two non-single dispatch
// paths end to end.
func TestClusterAndExperimentJobs(t *testing.T) {
	_, ts := newTestService(t, Config{})
	_, cl := postJob(t, ts.URL, JobSpec{Workload: "gzip", Seed: 7, Nodes: 2, BudgetW: 30, Iterations: 1})
	_, ex := postJob(t, ts.URL, JobSpec{Experiment: "table4", Seed: 7})

	if st := waitTerminal(t, ts.URL, cl.ID); st.State != StateDone {
		t.Fatalf("cluster job = %s (%s)", st.State, st.Error)
	}
	_, _, body := getBody(t, ts.URL+"/api/jobs/"+cl.ID+"/result")
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 || res.MakespanSec <= 0 || res.PeakTotalW <= 0 {
		t.Errorf("cluster result = %+v", res)
	}
	// Cluster jobs have no single-machine trace.
	if code, _, _ := getBody(t, ts.URL+"/api/jobs/"+cl.ID+"/result?format=csv"); code != http.StatusBadRequest {
		t.Errorf("cluster csv = %d, want 400", code)
	}

	if st := waitTerminal(t, ts.URL, ex.ID); st.State != StateDone {
		t.Fatalf("experiment job = %s (%s)", st.State, st.Error)
	}
	_, _, body = getBody(t, ts.URL+"/api/jobs/"+ex.ID+"/result")
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "table4" || res.Output == "" {
		t.Errorf("experiment result = %+v", res)
	}
}

// TestFleetJob routes a levels>1 cluster job through the hierarchical
// fleet coordinator and checks the aggregate-only result shape.
func TestFleetJob(t *testing.T) {
	_, ts := newTestService(t, Config{})
	_, fl := postJob(t, ts.URL, JobSpec{
		Workload: "gzip", Seed: 7, Nodes: 8, BudgetW: 120,
		Levels: 2, Fanout: 4, Iterations: 1,
	})
	if st := waitTerminal(t, ts.URL, fl.ID); st.State != StateDone {
		t.Fatalf("fleet job = %s (%s)", st.State, st.Error)
	}
	_, _, body := getBody(t, ts.URL+"/api/jobs/"+fl.ID+"/result")
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Policy != "fleet-pm/L2" {
		t.Errorf("policy = %q, want fleet-pm/L2", res.Policy)
	}
	if len(res.Nodes) != 8 || res.MakespanSec <= 0 || res.PeakTotalW <= 0 ||
		res.EnergyJ <= 0 || res.Ticks <= 0 {
		t.Errorf("fleet result = %+v", res)
	}
	// Fleet jobs retain no per-interval trace.
	if code, _, _ := getBody(t, ts.URL+"/api/jobs/"+fl.ID+"/result?format=csv"); code != http.StatusBadRequest {
		t.Errorf("fleet csv = %d, want 400", code)
	}

	// Validation: fanout without levels, and levels out of range.
	if code, _ := postJob(t, ts.URL, JobSpec{Workload: "gzip", Nodes: 4, BudgetW: 60, Fanout: 4}); code != http.StatusBadRequest {
		t.Errorf("fanout-without-levels = %d, want 400", code)
	}
	if code, _ := postJob(t, ts.URL, JobSpec{Workload: "gzip", Nodes: 4, BudgetW: 60, Levels: 99}); code != http.StatusBadRequest {
		t.Errorf("levels=99 = %d, want 400", code)
	}
}

// TestAcceptance32Jobs is the issue's acceptance scenario: 32 jobs
// against queue depth 8 with 4 workers either complete or are rejected
// with 429, deterministically — the workers are gated so admission
// arithmetic is exact: workers + depth accepted, the rest rejected.
func TestAcceptance32Jobs(t *testing.T) {
	const n = 32
	gate := make(chan struct{})
	started := make(chan string, n)
	svc, ts := newTestService(t, Config{
		QueueDepth: 8,
		Workers:    4,
		beforeRun: func(_ context.Context, j *Job) {
			started <- j.ID
			<-gate
		},
	})
	workers := svc.Workers() // min(GOMAXPROCS, 4) on small hosts

	var accepted, rejected []string
	for i := 0; i < n; i++ {
		js := quickSpec()
		js.Seed = int64(100 + i)
		code, st := postJob(t, ts.URL, js)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			rejected = append(rejected, js.ID())
		default:
			t.Fatalf("job %d: status %d", i, code)
		}
		if len(accepted) == workers {
			// Wait until every worker is parked inside a job so the
			// remaining admissions are purely queue slots.
			for len(started) < workers {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if want := workers + 8; len(accepted) != want {
		t.Fatalf("accepted %d jobs, want %d (workers=%d + depth=8)", len(accepted), want, workers)
	}
	if len(accepted)+len(rejected) != n {
		t.Fatalf("accepted %d + rejected %d != %d", len(accepted), len(rejected), n)
	}
	close(gate)
	for _, id := range accepted {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Errorf("accepted job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	// Every rejected spec was never registered.
	for _, id := range rejected {
		if _, ok := svc.Get(id); ok {
			t.Errorf("rejected job %s is registered", id)
		}
	}
}

// TestMetricsScrapeUnderLoad runs 4 jobs while concurrently rendering
// the Prometheus exposition — the -race check that the serve telemetry
// and the per-run observers share the registry safely.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 4})
	var ids []string
	for i := 0; i < 4; i++ {
		js := quickSpec()
		js.Seed = int64(200 + i)
		code, st := postJob(t, ts.URL, js)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := svc.Registry().WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			scrapes++
		}
	}()
	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Errorf("job %s = %s (%s)", id, st.State, st.Error)
		}
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no concurrent scrapes completed")
	}
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		MetricQueueDepth,
		MetricJobs + `{state="done"} 4`,
		MetricCacheMiss + " 4",
		MetricJobWall + "_count 4",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestEventStreamLive subscribes before the job finishes and checks
// the stream delivers live lines and terminates at the terminal state.
func TestEventStreamLive(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	_, ts := newTestService(t, Config{
		Workers:       1,
		ProgressEvery: 10,
		beforeRun:     func(_ context.Context, j *Job) { started <- j.ID; <-gate },
	})
	_, st := postJob(t, ts.URL, quickSpec())
	<-started

	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(gate)                     // job runs while we read
	b, err := io.ReadAll(resp.Body) // returns once the stream closes at terminal state
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var last progressEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "state" || last.State != StateDone {
		t.Errorf("stream ended on %+v, want state/done", last)
	}
}

// TestDeadlineFailsJob pins the per-job timeout: a job that cannot
// finish inside JobTimeout ends failed with a deadline message.
func TestDeadlineFailsJob(t *testing.T) {
	_, ts := newTestService(t, Config{JobTimeout: 30 * time.Millisecond})
	js := JobSpec{Workload: "ammp", Seed: 1, Iterations: 100000}
	_, st := postJob(t, ts.URL, js)
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("state = %s (%q), want failed with deadline detail", final.State, final.Error)
	}
	// A fresh submission of the failed spec re-enqueues it.
	code, _ := postJob(t, ts.URL, js)
	if code != http.StatusAccepted {
		t.Errorf("resubmit of failed job = %d, want 202", code)
	}
	waitTerminal(t, ts.URL, st.ID)
}

// TestSubmitAnnouncesQueuedFirst races distinct submissions against
// idle workers, round after round. A worker may pop a job the moment
// admission queues it, so Submit must announce and count "queued"
// before any worker can announce "running": every event log starts
// with queued, and the queued gauge never dips below zero.
func TestSubmitAnnouncesQueuedFirst(t *testing.T) {
	const (
		rounds     = 300
		submitters = 4
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var negative atomic.Int64
	var svc *Service
	svc = New(Config{
		Workers: 8,
		// Evicting finished jobs keeps the store small and puts
		// eviction work on the submit path, next to admission.
		MaxJobs: 16,
		beforeRun: func(context.Context, *Job) {
			svc.tel.mu.Lock()
			if svc.tel.counts[StateQueued] < 0 {
				negative.Add(1)
			}
			svc.tel.mu.Unlock()
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	deadline := time.Now().Add(60 * time.Second)
	for r := 0; r < rounds; r++ {
		// Each round starts with every worker parked on the empty
		// queue, so each admission can be popped at once.
		jobs := make([]*Job, submitters)
		var wg sync.WaitGroup
		for g := range jobs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// One tick and out: the job fails at once.
				js := quickSpec()
				js.Seed = int64(r*submitters + g + 1)
				js.MaxTicks = 1
				j, created, err := svc.Submit(js)
				if err != nil || !created {
					t.Errorf("submit seed %d: created=%v err=%v", js.Seed, created, err)
					return
				}
				jobs[g] = j
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for _, j := range jobs {
			for !j.State().Terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck in %s", j.ID, j.State())
				}
				time.Sleep(50 * time.Microsecond)
			}
			j.mu.Lock()
			ev := j.events
			j.mu.Unlock()
			replay, _, cancel := ev.subscribe()
			cancel()
			if len(replay) == 0 {
				t.Fatalf("job %s: empty event log", j.ID)
			}
			var first progressEvent
			if err := json.Unmarshal(replay[0], &first); err != nil {
				t.Fatal(err)
			}
			if first.Seq != 1 || first.Type != "state" || first.State != StateQueued {
				t.Fatalf("round %d, job %s: first event = %+v, want seq 1 state/queued", r, j.ID, first)
			}
		}
	}
	if n := negative.Load(); n > 0 {
		t.Errorf("queued gauge was negative at %d job starts", n)
	}
	svc.tel.mu.Lock()
	queued, running := svc.tel.counts[StateQueued], svc.tel.counts[StateRunning]
	svc.tel.mu.Unlock()
	if queued != 0 || running != 0 {
		t.Errorf("after drain: queued %d, running %d, want 0 and 0", queued, running)
	}
}
