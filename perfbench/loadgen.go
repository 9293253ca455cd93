package main

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"aapm/internal/serve"
)

// jobRec is one scheduled submission and what became of it. Only the
// generator worker currently holding the job touches its outcome
// fields; the generator's mutex orders hand-offs between workers.
type jobRec struct {
	idx   int
	spec  serve.JobSpec
	body  []byte
	kind  string // single, cluster or fleet
	csv   bool   // fetch the single-run trace as CSV
	dupOf int    // index of the original submission, -1 if distinct
	due   time.Duration

	dueAt    time.Time
	sent     time.Time
	acked    time.Time // POST reply received
	fetched  time.Time // result received
	id       string
	traceID  string
	created  bool
	hit      bool // a duplicate answered done straight from the store
	done     bool
	wallMs   float64
	result   [sha256.Size]byte // digest of the result bytes
	err      string
	queueMs  float64 // the service's queue-wait span, when fetched
	polls    int
	nextPoll time.Time
	ops      []opTime
}

// opTime is one HTTP round trip made for a job.
type opTime struct {
	name       string
	start, end time.Time
}

// pollQueue orders jobs awaiting a status poll or result fetch.
type pollQueue []*jobRec

func (q pollQueue) Len() int           { return len(q) }
func (q pollQueue) Less(a, b int) bool { return q[a].nextPoll.Before(q[b].nextPoll) }
func (q pollQueue) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *pollQueue) Push(x any)        { *q = append(*q, x.(*jobRec)) }
func (q *pollQueue) Pop() any {
	old := *q
	j := old[len(old)-1]
	*q = old[:len(old)-1]
	return j
}

// loadgen is a bounded open-loop generator: a fixed set of workers,
// each with one keep-alive connection, sends every submission when it
// is due (submissions first, then polls), polls each job to done and
// fetches its result. Latencies are timed from each job's due time, so
// a stall also charges the submissions queued behind it.
type loadgen struct {
	base  string
	jobs  []*jobRec
	start time.Time

	// traceEvery > 0 fetches /api/trace/{id} after the result of every
	// traceEvery-th created job, for the service's queue-wait spans.
	traceEvery int

	mu      sync.Mutex
	next    int
	pending pollQueue
	busy    int
}

// pollEvery is the status poll interval. It is kept short and fixed:
// a backoff would quantize the latency tail to its widening steps.
const pollEvery = time.Millisecond

// run drives the schedule with the given number of workers and
// returns once every job has ended or the drain limit has passed.
func (g *loadgen) run(workers int, window float64, drain time.Duration) {
	g.start = time.Now()
	for _, j := range g.jobs {
		j.dueAt = g.start.Add(j.due)
	}
	deadline := g.start.Add(time.Duration(window*float64(time.Second)) + drain)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			g.worker(c, deadline)
		}()
	}
	wg.Wait()
	for _, j := range g.jobs {
		if !j.done && j.err == "" {
			j.err = "not done within the drain limit"
		}
	}
}

func (g *loadgen) worker(c *http.Client, deadline time.Time) {
	for {
		g.mu.Lock()
		now := time.Now()
		var j *jobRec
		switch {
		case g.next < len(g.jobs) && !g.jobs[g.next].dueAt.After(now):
			j = g.jobs[g.next]
			g.next++
		case len(g.pending) > 0 && !g.pending[0].nextPoll.After(now):
			j = heap.Pop(&g.pending).(*jobRec)
		case g.next == len(g.jobs) && len(g.pending) == 0 && g.busy == 0, now.After(deadline):
			g.mu.Unlock()
			return
		default:
			wake := now.Add(500 * time.Microsecond)
			if g.next < len(g.jobs) && g.jobs[g.next].dueAt.Before(wake) {
				wake = g.jobs[g.next].dueAt
			}
			if len(g.pending) > 0 && g.pending[0].nextPoll.Before(wake) {
				wake = g.pending[0].nextPoll
			}
			g.mu.Unlock()
			time.Sleep(wake.Sub(now))
			continue
		}
		g.busy++
		g.mu.Unlock()
		again := g.step(c, j)
		g.mu.Lock()
		g.busy--
		if again {
			heap.Push(&g.pending, j)
		}
		g.mu.Unlock()
	}
}

// jobStatus is the part of the service's job status the generator
// reads.
type jobStatus struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	TraceID  string  `json:"trace_id"`
	WallMs   float64 `json:"wall_ms"`
	ErrorMsg string  `json:"error"`
}

// step makes the job's next request and reports whether the job needs
// another one.
func (g *loadgen) step(c *http.Client, j *jobRec) bool {
	switch {
	case j.sent.IsZero():
		return g.submit(c, j)
	case !j.done:
		return g.poll(c, j)
	default:
		return g.fetch(c, j)
	}
}

func (g *loadgen) do(c *http.Client, j *jobRec, name, method, url string, body []byte) (int, []byte, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.ops = append(j.ops, opTime{name: name, start: start, end: time.Now()})
	return resp.StatusCode, b, err
}

// admit applies a status reply and schedules the job's next request.
func (j *jobRec) admit(st jobStatus) bool {
	if j.traceID == "" {
		j.traceID = st.TraceID
	}
	switch serve.State(st.State) {
	case serve.StateDone:
		j.done = true
		j.wallMs = st.WallMs
		j.nextPoll = time.Now()
		return true
	case serve.StateQueued, serve.StateRunning:
		j.nextPoll = time.Now().Add(pollEvery)
		j.polls++
		return true
	default:
		j.err = fmt.Sprintf("job ended %s: %s", st.State, st.ErrorMsg)
		return false
	}
}

func (g *loadgen) submit(c *http.Client, j *jobRec) bool {
	j.sent = time.Now()
	code, b, err := g.do(c, j, "serve.submit", http.MethodPost, g.base+"/api/jobs", j.body)
	j.acked = time.Now()
	if err != nil {
		j.err = "submit: " + err.Error()
		return false
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		j.err = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
		return false
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		j.err = "submit: " + err.Error()
		return false
	}
	j.id = st.ID
	if want := j.spec.ID(); st.ID != want {
		j.err = fmt.Sprintf("submit: job ID %s, want %s", st.ID, want)
		return false
	}
	j.created = code == http.StatusAccepted
	j.hit = !j.created && serve.State(st.State) == serve.StateDone
	return j.admit(st)
}

func (g *loadgen) poll(c *http.Client, j *jobRec) bool {
	code, b, err := g.do(c, j, "serve.status", http.MethodGet, g.base+"/api/jobs/"+j.id, nil)
	if err != nil || code != http.StatusOK {
		j.err = fmt.Sprintf("status: HTTP %d: %v %s", code, err, bytes.TrimSpace(b))
		return false
	}
	var st jobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		j.err = "status: " + err.Error()
		return false
	}
	return j.admit(st)
}

func (g *loadgen) fetch(c *http.Client, j *jobRec) bool {
	url := g.base + "/api/jobs/" + j.id + "/result"
	if j.csv {
		url += "?format=csv"
	}
	code, b, err := g.do(c, j, "serve.result", http.MethodGet, url, nil)
	if err != nil || code != http.StatusOK {
		j.err = fmt.Sprintf("result: HTTP %d: %v %s", code, err, bytes.TrimSpace(b))
		return false
	}
	j.result = sha256.Sum256(b)
	j.fetched = time.Now()
	if g.traceEvery > 0 && j.created && j.idx%g.traceEvery == 0 {
		g.queueWait(c, j)
	}
	return false
}

// queueWait reads the job's queue-wait span from /api/trace/{id}; an
// unsampled trace has none.
func (g *loadgen) queueWait(c *http.Client, j *jobRec) {
	code, b, err := g.do(c, j, "serve.trace", http.MethodGet, g.base+"/api/trace/"+j.id, nil)
	if err != nil || code != http.StatusOK {
		j.err = fmt.Sprintf("trace: HTTP %d: %v %s", code, err, bytes.TrimSpace(b))
		return
	}
	var tr struct {
		Spans []struct {
			Name      string  `json:"name"`
			WallDurUS float64 `json:"wall_dur_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		j.err = "trace: " + err.Error()
		return
	}
	for _, s := range tr.Spans {
		if s.Name == "queue-wait" {
			j.queueMs = s.WallDurUS / 1e3
		}
	}
}

// metrics summarizes a finished window. Throughput is the jobs
// completed over the span from the first job's due time to the last
// result: it falls below the offered rate only when a backlog grows.
func (g *loadgen) metrics() map[string]float64 {
	var jobMs, submit, submitNew, submitHit, lag, status, result, queue []float64
	runMs := map[string][]float64{}
	var dups, hits int
	var last time.Time
	subMs := make([][]float64, max(1, int(math.Round(float64(g.jobs[len(g.jobs)-1].due)/float64(serveSubWindow)))))
	for _, j := range g.jobs {
		if !j.sent.IsZero() {
			lag = append(lag, ms(j.sent.Sub(j.dueAt)))
		}
		if j.dupOf >= 0 {
			dups++
			if j.hit {
				hits++
			}
		}
		if !j.acked.IsZero() && j.err == "" {
			d := ms(j.acked.Sub(j.dueAt))
			submit = append(submit, d)
			switch {
			case j.created:
				submitNew = append(submitNew, d)
			case j.hit:
				submitHit = append(submitHit, d)
			}
		}
		for _, op := range j.ops {
			switch op.name {
			case "serve.status":
				status = append(status, ms(op.end.Sub(op.start)))
			case "serve.result":
				result = append(result, ms(op.end.Sub(op.start)))
			}
		}
		if j.fetched.IsZero() || j.err != "" {
			continue
		}
		jobMs = append(jobMs, ms(j.fetched.Sub(j.dueAt)))
		k := min(int(j.due/serveSubWindow), len(subMs)-1)
		subMs[k] = append(subMs[k], jobMs[len(jobMs)-1])
		if j.fetched.After(last) {
			last = j.fetched
		}
		if j.created {
			runMs[j.kind] = append(runMs[j.kind], j.wallMs)
		}
		if j.queueMs > 0 {
			queue = append(queue, j.queueMs)
		}
	}
	return map[string]float64{
		"jobs_per_s":               float64(len(jobMs)) / max(0, last.Sub(g.jobs[0].dueAt).Seconds()),
		"job_p50_ms":               medianOfMedians(subMs),
		"serve.job_p99_ms":         quantile(jobMs, 0.99),
		"serve.submit_p99_ms":      quantile(submit, 0.99),
		"serve.submit_new_p99_ms":  quantile(submitNew, 0.99),
		"serve.submit_hit_p99_ms":  quantile(submitHit, 0.99),
		"serve.status_p99_ms":      quantile(status, 0.99),
		"serve.result_p99_ms":      quantile(result, 0.99),
		"serve.single_run_p50_ms":  quantile(runMs["single"], 0.5),
		"serve.cluster_run_p50_ms": quantile(runMs["cluster"], 0.5),
		"serve.fleet_run_p50_ms":   quantile(runMs["fleet"], 0.5),
		"serve.cache_hit_ratio":    float64(hits) / float64(max(dups, 1)),
		"loadgen.lag_p99_ms":       quantile(lag, 0.99),
		"serve.queue_wait_p99_ms":  quantile(queue, 0.99),
	}
}

// serveSubWindow splits a window for the end-to-end median: each
// sub-window's median is taken on its own and the median across
// sub-windows reported, so one host hiccup moves one sub-window only.
const serveSubWindow = 2 * time.Second

func medianOfMedians(subs [][]float64) float64 {
	var per []float64
	for _, s := range subs {
		if len(s) > 0 {
			per = append(per, median(s))
		}
	}
	return median(per)
}

// spans turns the window's recorded round trips into spans: one per
// job from its due time to its result, with its requests beneath it.
func (g *loadgen) spans(tr *tracer, parent string) {
	for _, j := range g.jobs {
		if j.sent.IsZero() {
			continue
		}
		end := j.fetched
		if end.IsZero() && len(j.ops) > 0 {
			end = j.ops[len(j.ops)-1].end
		}
		id := tr.record("loadgen.job."+j.kind, parent, j.dueAt, end)
		for _, op := range j.ops {
			tr.record(op.name, id, op.start, op.end)
		}
	}
}
