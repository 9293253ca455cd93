package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSustainedChurn is the round-2 retention gate: many more distinct
// specs than MaxJobs flow through the HTTP surface, and the service
// must stay bounded — the retained-job table at or under MaxJobs, the
// heap stable — while an evicted Done spec resubmitted later re-runs
// to byte-identical result bytes.
func TestSustainedChurn(t *testing.T) {
	const (
		maxJobs = 16
		total   = 200 // >= 10x maxJobs distinct specs
		wave    = 8
	)
	svc, ts := newTestService(t, Config{
		MaxJobs:    maxJobs,
		QueueDepth: wave,
		Workers:    2,
	})

	churnSpec := func(i int) JobSpec {
		js := quickSpec()
		js.Seed = int64(1000 + i)
		return js
	}

	// Submit in waves of at most QueueDepth, waiting each wave out so
	// admission never 429s and every spec really runs.
	var firstBytes []byte
	firstID := ""
	heapAfterWarm := uint64(0)
	for base := 0; base < total; base += wave {
		var ids []string
		for i := base; i < base+wave && i < total; i++ {
			code, st := postJob(t, ts.URL, churnSpec(i))
			if code != http.StatusAccepted {
				t.Fatalf("spec %d: submit = %d, want 202", i, code)
			}
			ids = append(ids, st.ID)
		}
		for _, id := range ids {
			if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
				t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
			}
		}
		if base == 0 {
			// Capture the first job's bytes before churn evicts it.
			firstID = ids[0]
			var code int
			code, _, firstBytes = getBody(t, ts.URL+"/api/jobs/"+firstID+"/result")
			if code != http.StatusOK {
				t.Fatalf("first result = %d", code)
			}
		}
		if base+wave >= total/4 && heapAfterWarm == 0 {
			heapAfterWarm = heapInUse()
		}
	}

	if n := svc.JobCount(); n > maxJobs {
		t.Errorf("retained jobs after churn = %d, want <= %d", n, maxJobs)
	}

	// Heap stability: 4x the churn volume of the warm point must not
	// grow the live heap materially — the round-1 service leaked every
	// job, its events ring and its result bytes forever.
	heapFinal := heapInUse()
	if limit := heapAfterWarm + heapAfterWarm/2 + 8<<20; heapFinal > limit {
		t.Errorf("heap grew under churn: %d B warm vs %d B final (limit %d)", heapAfterWarm, heapFinal, limit)
	}

	// The first job aged out: 404 naming the eviction.
	code, _, body := getBody(t, ts.URL+"/api/jobs/"+firstID)
	if code != http.StatusNotFound || !strings.Contains(string(body), "evicted") {
		t.Fatalf("evicted job GET = %d %s, want 404 naming the eviction", code, body)
	}

	// Resubmitting the evicted spec re-runs it to the same bytes.
	code, st := postJob(t, ts.URL, churnSpec(0))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit of evicted spec = %d, want 202 (a fresh run)", code)
	}
	if st.ID != firstID {
		t.Fatalf("resubmitted spec hashed to %s, want %s", st.ID, firstID)
	}
	if fin := waitTerminal(t, ts.URL, firstID); fin.State != StateDone {
		t.Fatalf("re-run ended %s (%s)", fin.State, fin.Error)
	}
	_, _, again := getBody(t, ts.URL+"/api/jobs/"+firstID+"/result")
	if !bytes.Equal(firstBytes, again) {
		t.Errorf("re-run of evicted spec returned different bytes (%d vs %d)", len(firstBytes), len(again))
	}
}

// heapInUse forces a GC and reads the live-heap size.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestEvictionPrefersLRUAndSkipsLive pins victim selection: only
// terminal jobs are evicted, least recently used first, and touching a
// job (a GET) refreshes it.
func TestEvictionPrefersLRUAndSkipsLive(t *testing.T) {
	_, ts := newTestService(t, Config{MaxJobs: 2, Workers: 1})
	run := func(i int) string {
		js := quickSpec()
		js.Seed = int64(3000 + i)
		_, st := postJob(t, ts.URL, js)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("job %d ended %s", i, fin.State)
		}
		return st.ID
	}
	a := run(0)
	b := run(1)
	// Touch a so b is now least recently used.
	if code, _, _ := getBody(t, ts.URL+"/api/jobs/"+a); code != http.StatusOK {
		t.Fatal("touch of a failed")
	}
	run(2) // evicts b, not a
	if code, _, _ := getBody(t, ts.URL+"/api/jobs/"+a); code != http.StatusOK {
		t.Errorf("recently-used job a evicted")
	}
	code, _, body := getBody(t, ts.URL+"/api/jobs/"+b)
	if code != http.StatusNotFound || !strings.Contains(string(body), "lru") {
		t.Errorf("LRU job b = %d %s, want 404 with reason lru", code, body)
	}
}

// TestMaxResultBytesEviction pins the byte bound: retained result
// bytes stay under MaxResultBytes even when the job count is tiny.
func TestMaxResultBytesEviction(t *testing.T) {
	// Each ammp result is a few hundred bytes; a 1 KB budget holds
	// only a couple of terminal jobs.
	svc, ts := newTestService(t, Config{MaxResultBytes: 1 << 10, Workers: 1})
	for i := 0; i < 6; i++ {
		js := quickSpec()
		js.Seed = int64(4000 + i)
		_, st := postJob(t, ts.URL, js)
		if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
			t.Fatalf("job %d ended %s", i, fin.State)
		}
	}
	svc.mu.Lock()
	retained := svc.store.resultBytes()
	svc.mu.Unlock()
	if retained > 1<<10 {
		t.Errorf("retained result bytes = %d, want <= %d", retained, 1<<10)
	}
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricEvicted+`{reason="bytes"}`) {
		t.Error("exposition missing a bytes-reason eviction")
	}
}

// fakeClock is a manually advanced time source for the rate limiter.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestTenantRateLimit pins the intake token bucket: a tenant's
// enqueueing submissions beyond its burst are rejected with
// ErrRateLimited (HTTP 429 + Retry-After), cache-hit submissions stay
// free, and tokens refill with time.
func TestTenantRateLimit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	gate := make(chan struct{})
	defer close(gate)
	svc, ts := newTestService(t, Config{
		Workers:          1,
		TenantRatePerSec: 1,
		TenantBurst:      1,
		now:              clk.now,
		beforeRun:        func(context.Context, *Job) { <-gate },
	})

	spec := func(seed int64) JobSpec {
		js := quickSpec()
		js.Seed = seed
		js.Tenant = "acme"
		return js
	}
	if _, created, err := svc.Submit(spec(1)); err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	// Bucket is empty: a second distinct spec is rate-limited.
	if _, _, err := svc.Submit(spec(2)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit err = %v, want ErrRateLimited", err)
	}
	// A duplicate of the queued spec is a free cache/join hit.
	if _, created, err := svc.Submit(spec(1)); err != nil || created {
		t.Fatalf("duplicate submit: created=%v err=%v, want free join", created, err)
	}
	// Another tenant has its own bucket.
	other := spec(3)
	other.Tenant = "rival"
	if _, _, err := svc.Submit(other); err != nil {
		t.Fatalf("other tenant submit err = %v", err)
	}
	// Refill: one second buys one token.
	clk.advance(time.Second)
	if _, _, err := svc.Submit(spec(2)); err != nil {
		t.Fatalf("post-refill submit err = %v", err)
	}

	// The HTTP surface maps the rejection to 429 with a Retry-After.
	body, _ := json.Marshal(spec(4))
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited POST = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricRateLimited+`{tenant="acme"}`) {
		t.Error("exposition missing the per-tenant rate-limited counter")
	}
}

// TestRetryAfterDerivation pins the computed retry horizon: mean job
// wall x backlog / workers, clamped to [1, 60], never the round-1
// hardcoded constant.
func TestRetryAfterDerivation(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	svc, ts := newTestService(t, Config{Workers: 2, QueueDepth: 64,
		beforeRun: func(context.Context, *Job) { started <- struct{}{}; <-gate }})
	workers := svc.Workers()

	// No observation yet: the 1 s floor.
	if got := svc.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter before any completion = %v, want 1s", got)
	}

	// Park every worker inside a plug job so the backlog we build next
	// stays exactly where we put it.
	for i := 0; i < workers; i++ {
		js := quickSpec()
		js.Seed = int64(6000 + i)
		if code, _ := postJob(t, ts.URL, js); code != http.StatusAccepted {
			t.Fatalf("plug %d rejected", i)
		}
	}
	for i := 0; i < workers; i++ {
		<-started
	}

	// Seed the EWMA and a backlog directly (unit seam: same package).
	svc.wallEWMA.Store(math.Float64bits(2.0))
	backlog := 6
	for i := 0; i < backlog; i++ {
		j := &Job{ID: fmt.Sprintf("ra%d", i), state: StateQueued, events: newEventLog(4)}
		j.Spec = quickSpec()
		j.Spec.Seed = int64(7000 + i)
		if err := svc.q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := time.Duration(math.Ceil(2.0*float64(backlog)/float64(workers))) * time.Second
	if got := svc.RetryAfter(); got != want {
		t.Fatalf("RetryAfter = %v, want %v (ewma 2s x %d backlog / %d workers)", got, want, backlog, workers)
	}

	// Clamp: a pathological backlog estimate saturates at 60 s.
	svc.wallEWMA.Store(math.Float64bits(1000.0))
	if got := svc.RetryAfter(); got != 60*time.Second {
		t.Fatalf("RetryAfter clamp = %v, want 60s", got)
	}
}

// TestTenantFairShareCompletionOrder pins end-to-end weighted fair
// scheduling: with tenant a weighted 3x over b and both backlogged
// behind one worker, jobs start in deterministic 3:1 rounds.
func TestTenantFairShareCompletionOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	first := true
	holdFirst := make(chan struct{})
	_, ts := newTestService(t, Config{
		Workers:       1,
		QueueDepth:    32,
		TenantWeights: map[string]int{"a": 3, "b": 1},
		beforeRun: func(_ context.Context, j *Job) {
			mu.Lock()
			wasFirst := first
			first = false
			order = append(order, tenantLabel(j.Spec.Tenant))
			mu.Unlock()
			if wasFirst {
				<-holdFirst
			}
		},
	})

	// The plug job occupies the worker while both tenants queue up.
	_, plug := postJob(t, ts.URL, quickSpec())
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		started := len(order) > 0
		mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plug job never started")
		}
		time.Sleep(time.Millisecond)
	}

	var ids []string
	for i := 0; i < 8; i++ {
		for _, tenant := range []string{"a", "b"} {
			js := quickSpec()
			js.Seed = int64(5000 + i)
			js.Tenant = tenant
			code, st := postJob(t, ts.URL, js)
			if code != http.StatusAccepted {
				t.Fatalf("submit %s/%d = %d", tenant, i, code)
			}
			ids = append(ids, st.ID)
		}
	}
	close(holdFirst)
	waitTerminal(t, ts.URL, plug.ID)
	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}

	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if len(got) != 17 {
		t.Fatalf("started %d jobs, want 17 (plug + 16)", len(got))
	}
	// After the plug, rounds of quantum 3+1: a,a,a,b repeating until a
	// (8 jobs) drains mid-round, then b's remainder.
	want := []string{"default", "a", "a", "a", "b", "a", "a", "a", "b", "a", "a", "b", "b", "b", "b", "b", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("start order = %v, want %v", got, want)
		}
	}
}
