// Package serve is the asynchronous run service: simulation jobs
// arrive over HTTP, wait in a bounded multi-tenant queue, and execute
// on a fixed worker pool, each under its own context with a deadline.
// The service is the scaling layer the ROADMAP's "heavy traffic" goal
// asks for — callers submit and poll (or stream progress) instead of
// holding a connection per simulation — and it is built to survive
// sustained traffic: the job table is bounded (LRU eviction of
// terminal jobs), intake is rate-limited per tenant, and the queue
// drains tenants by weighted fair share.
//
// Core pieces:
//
//   - Job model (job.go): a content-addressed JobSpec whose
//     deterministic ID doubles as the result-cache key, with a small
//     explicit lifecycle state machine and an optional tenant.
//   - Backpressure (queue.go, ratelimit.go): per-tenant FIFOs under a
//     global bound, drained by deficit round-robin with configurable
//     weights; a full queue or an over-rate tenant rejects the
//     submission immediately (HTTP 429 + a Retry-After computed from
//     the observed drain rate) rather than buffering unboundedly.
//   - Scheduler (this file): min(GOMAXPROCS, Config.Workers) workers
//     drain the queue, reusing the machine/cluster/experiment entry
//     points (exec.go) under a per-job context.Context with a
//     deadline.
//   - Bounded result store (store.go): completed jobs keep their
//     marshaled result, so a resubmission of the same canonical spec
//     is served from memory, byte-identical, with an idempotency hit
//     counter; MaxJobs/MaxResultBytes bound retention, evicting
//     least-recently-used terminal jobs (an evicted ID answers 404
//     with the eviction reason, and a fresh submission of the same
//     spec re-runs to the same bytes).
//   - Streaming progress (events.go): per-job NDJSON event streams
//     fed by the engine's machine.Hook bus.
//   - Telemetry (telemetry.go): queue depth (global and per tenant),
//     jobs by state, per-job wall histogram, cache hit/miss,
//     rejection/rate-limit/eviction counters and the retained-bytes
//     gauge on the shared registry.
//
// Simulation results through the serve path are byte-identical to
// direct runs — every serve-side consumer is a Hook-bus observer, and
// the golden-trace-through-serve test pins it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"aapm/internal/obs"
	"aapm/internal/telemetry"
	"aapm/internal/trace"
)

// ErrUnknownJob reports a job ID the service has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// Config describes a run service.
type Config struct {
	// QueueDepth bounds the pending-job buffer across all tenants;
	// submissions beyond it are rejected with ErrQueueFull. 0 selects
	// 64.
	QueueDepth int
	// Workers caps the execution pool: the service runs
	// min(GOMAXPROCS, Workers) workers. 0 selects 4.
	Workers int
	// JobTimeout is each job's execution deadline (host wall-clock).
	// 0 selects 2 minutes — generous for virtual-time simulation.
	JobTimeout time.Duration
	// ProgressEvery samples every Nth interval into the job's event
	// stream. 0 selects 25 (4 events per simulated second).
	ProgressEvery int
	// EventBuffer is the per-job progress ring capacity (history
	// replayed to late stream subscribers). 0 selects 256.
	EventBuffer int

	// MaxJobs bounds the retained job table. When a submission would
	// grow it past MaxJobs, least-recently-used *terminal* jobs are
	// evicted (queued/running jobs are never evicted, so size MaxJobs
	// at least QueueDepth+Workers to keep the bound tight). An evicted
	// ID answers ErrUnknownJob with an eviction reason; resubmitting
	// its spec re-runs the job, deterministically byte-identical.
	// 0 disables eviction — retain everything, the round-1 behavior.
	MaxJobs int
	// MaxResultBytes bounds the summed cached-result bytes across
	// retained terminal jobs, evicting LRU terminal jobs when
	// exceeded. 0 disables the byte bound.
	MaxResultBytes int64
	// TenantWeights sets the deficit-round-robin drain weight per
	// tenant name ("" is the default tenant); missing tenants weigh 1.
	// Over any contended window a tenant completes jobs in proportion
	// to its weight.
	TenantWeights map[string]int
	// TenantRatePerSec turns on per-tenant intake rate limiting: each
	// tenant's token bucket refills at this rate and a submission that
	// would enqueue work (new spec, or re-run of a failed/canceled/
	// aborted one) spends a token. Cache-hit submissions are free.
	// 0 disables rate limiting.
	TenantRatePerSec float64
	// TenantBurst is the token bucket capacity; 0 selects
	// max(1, 2×TenantRatePerSec).
	TenantBurst int

	// Telemetry receives the service metrics (and each run's observer
	// series); nil allocates a registry private to this service.
	Telemetry *telemetry.Registry

	// TraceSampleRate is the head-sampling probability for job traces
	// (obs.Config.SampleRate). 0 disables span recording — trace IDs
	// are still minted and echoed in replies and event streams, but the
	// span store sees no traffic and runs pay nothing.
	TraceSampleRate float64
	// TenantTraceRate overrides TraceSampleRate per tenant name.
	TenantTraceRate map[string]float64
	// TraceExport, when non-nil, tees every sampled span to a Perfetto
	// trace-event stream.
	TraceExport *telemetry.TraceEventWriter
	// MaxTraces / MaxTraceSpans bound the in-process span store
	// (obs.Config). 0 selects the obs defaults (256 / 512).
	MaxTraces     int
	MaxTraceSpans int
	// FlightEvents is each job's flight-recorder ring capacity.
	// 0 selects 128.
	FlightEvents int
	// SLOObjectives replaces the default objective set (submit latency,
	// completion latency, error rate, tenant fairness) evaluated by the
	// burn-rate engine behind /api/slo and /healthz.
	SLOObjectives []obs.Objective

	// Fleet, when non-nil, hosts a resident synthetic fleet the intent
	// API (/api/intents) reconciles against. An invalid fleet config
	// leaves the service running without a fleet; the intent endpoints
	// answer 503 naming the error.
	Fleet *FleetOptions

	// beforeRun, when non-nil, runs in the worker goroutine after a
	// job turns running and before it executes, with the run's context
	// — a seam for tests in this package to hold workers at a known
	// point or outlast the job's deadline. Unexported on purpose: not
	// part of the service's contract.
	beforeRun func(context.Context, *Job)
	// now, when non-nil, replaces time.Now for the intake rate
	// limiter — a seam so rate-limit tests advance a fake clock
	// instead of sleeping.
	now func() time.Time
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 25
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	return c
}

// Service accepts, queues, executes and caches simulation jobs. Safe
// for concurrent use.
type Service struct {
	cfg     Config
	reg     *telemetry.Registry
	tel     *serveTelemetry
	q       *jobQueue
	limiter *tenantLimiter
	tracer  *obs.Tracer
	slo     *obs.Engine

	// fleet is the resident intent-reconciled fleet (nil when not
	// configured, or when its construction failed — see fleetErr).
	fleet    *fleetHost
	fleetErr string

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu    sync.Mutex
	store *jobStore

	// wallEWMA tracks an exponentially weighted moving average of job
	// wall-clock seconds (float64 bits) — the drain-rate estimate
	// behind RetryAfter. Zero until the first job completes.
	wallEWMA atomic.Uint64

	wg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a run service: its workers are live and draining until
// Shutdown.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tel := newServeTelemetry(reg)
	objectives := cfg.SLOObjectives
	if objectives == nil {
		objectives = DefaultObjectives(cfg.TenantWeights)
	}
	s := &Service{
		cfg:     cfg,
		reg:     reg,
		tel:     tel,
		store:   newJobStore(cfg.MaxJobs, cfg.MaxResultBytes),
		limiter: newTenantLimiter(cfg.TenantRatePerSec, cfg.TenantBurst, cfg.now),
		tracer: obs.NewTracer(obs.Config{
			SampleRate:       cfg.TraceSampleRate,
			TenantRate:       cfg.TenantTraceRate,
			MaxTraces:        cfg.MaxTraces,
			MaxSpansPerTrace: cfg.MaxTraceSpans,
			Export:           cfg.TraceExport,
		}),
		slo: obs.NewEngine(objectives, cfg.now),
	}
	weightFor := func(tenant string) int { return cfg.TenantWeights[tenant] }
	s.q = newJobQueue(cfg.QueueDepth, weightFor,
		func(n int) { tel.queueDepth.Set(float64(n)) },
		tel.setTenantDepth)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Fleet != nil {
		fl := obs.NewFlightRecorder(cfg.FlightEvents)
		tr := s.tracer.Start("fleet-intents", "", fl)
		host, err := newFleetHost(*cfg.Fleet, reg, tr, fl)
		if err != nil {
			s.fleetErr = err.Error()
		} else {
			s.fleet = host
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the telemetry registry the service feeds.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Workers returns the execution pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// QueueLen returns the current backlog size.
func (s *Service) QueueLen() int { return s.q.len() }

// JobCount returns the number of retained jobs — bounded by
// Config.MaxJobs (plus in-flight slack) when eviction is on.
func (s *Service) JobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.len()
}

// RetryAfter estimates how long a rejected submitter should wait
// before retrying: the observed mean job wall-clock times the backlog,
// divided across the worker pool, clamped to [1, 60] seconds. Before
// any job has completed (no drain-rate observation yet) it reports the
// 1 s floor. The HTTP layer stamps this on every 429, queue-full and
// rate-limited alike.
func (s *Service) RetryAfter() time.Duration {
	secs := 1.0
	if w := math.Float64frombits(s.wallEWMA.Load()); w > 0 {
		est := w * float64(s.q.len()) / float64(s.cfg.Workers)
		secs = math.Ceil(est)
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// noteWall folds one completed job's wall-clock into the drain-rate
// EWMA (alpha 0.2 — a few jobs of memory, quick to track load shifts).
func (s *Service) noteWall(wall time.Duration) {
	const alpha = 0.2
	sec := wall.Seconds()
	for {
		old := s.wallEWMA.Load()
		prev := math.Float64frombits(old)
		next := sec
		if prev > 0 {
			next = alpha*sec + (1-alpha)*prev
		}
		if s.wallEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// EvictedReason reports whether id was evicted from the bounded store
// and why ("lru" or "bytes").
func (s *Service) EvictedReason(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.evictedReason(id)
}

// Submit validates and enqueues a job. created reports whether the
// submission put (or re-put) a job on the queue: false means an
// existing job with the same canonical spec absorbed the submission —
// the idempotency/cache path, counted on the job and in telemetry.
// Terminal-but-unsuccessful jobs (failed, canceled, aborted) are
// re-enqueued by a fresh submission of the same spec. Submissions that
// would enqueue work spend an intake token when rate limiting is on;
// an exhausted tenant bucket rejects with ErrRateLimited.
func (s *Service) Submit(js JobSpec) (j *Job, created bool, err error) {
	intakeStart := time.Now()
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	norm := js.Normalize()
	if err := norm.Validate(); err != nil {
		return nil, false, err
	}
	id := norm.ID()

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.store.get(id); ok {
		j.mu.Lock()
		if j.state.Terminal() && j.state != StateDone {
			// The previous attempt went nowhere; run it again — which
			// enqueues work, so it pays the intake token.
			if err := s.admitLocked(j); err != nil {
				j.mu.Unlock()
				return nil, false, err
			}
			from := j.state
			j.state = StateQueued
			j.err = ""
			j.cancelled = false
			j.result = nil
			j.run = nil
			j.wall = 0
			// A re-enqueue is a fresh attempt: new trace, new flight
			// ring, event sequence restarting at 1.
			s.mintTraceLocked(j, intakeStart)
			j.announceLocked(StateQueued, "")
			j.mu.Unlock()
			s.store.markLive(id)
			s.tel.resultBytes.Set(float64(s.store.resultBytes()))
			s.tel.transition(from, StateQueued)
			s.slo.ObserveLatency(SLOSubmitLatency, time.Since(intakeStart).Seconds())
			return j, true, nil
		}
		// Queued, running or done: the existing job satisfies this
		// submission (for done, straight from the result cache).
		j.hits++
		j.mu.Unlock()
		s.tel.cacheHits.Inc()
		s.slo.ObserveLatency(SLOSubmitLatency, time.Since(intakeStart).Seconds())
		return j, false, nil
	}

	// The trace, flight ring and event log must exist before admitLocked
	// makes the job poppable, and j.mu is held across admission as on
	// the re-enqueue path: a worker may pop the job at once, but cannot
	// announce or count "running" before "queued" is.
	j = &Job{ID: id, Spec: norm, state: StateQueued}
	s.mintTraceLocked(j, intakeStart)
	j.mu.Lock()
	if err := s.admitLocked(j); err != nil {
		j.mu.Unlock()
		return nil, false, err
	}
	s.tel.transition("", StateQueued)
	j.announceLocked(StateQueued, "")
	j.mu.Unlock()
	s.store.add(j)
	s.evictLocked()
	s.tel.cacheMiss.Inc()
	s.slo.ObserveLatency(SLOSubmitLatency, time.Since(intakeStart).Seconds())
	return j, true, nil
}

// mintTraceLocked starts a fresh trace + flight recorder for one run
// attempt of j (first admission or re-enqueue), replaces the event log
// so the NDJSON sequence restarts at 1 under the new trace ID, and
// records the intake span. Callers hold s.mu, plus j.mu when j is
// already shared (the re-enqueue path).
func (s *Service) mintTraceLocked(j *Job, intakeStart time.Time) {
	fl := obs.NewFlightRecorder(s.cfg.FlightEvents)
	tr := s.tracer.Start(j.ID, j.Spec.Tenant, fl)
	j.flight, j.trace, j.traceID = fl, tr, tr.TraceID()
	j.flightDump = nil
	j.enqueued = intakeStart
	j.events = newJobEventLog(s.cfg.EventBuffer, j.ID, j.traceID)
	tr.Record(obs.Span{
		Name:      "intake",
		Start:     intakeStart,
		WallDurUS: float64(time.Since(intakeStart)) / float64(time.Microsecond),
	})
}

// admitLocked passes j through the tenant rate limiter and onto the
// queue, counting rejections. A token spent on a push the queue then
// rejects is refunded — the tenant did not get the work it paid for.
func (s *Service) admitLocked(j *Job) error {
	tenant := j.Spec.Tenant
	if !s.limiter.allow(tenant) {
		s.tel.tenantRateLimited(tenant)
		return fmt.Errorf("%w (tenant %q)", ErrRateLimited, tenantLabel(tenant))
	}
	if err := s.q.push(j); err != nil {
		s.limiter.refund(tenant)
		if errors.Is(err, ErrQueueFull) {
			s.tel.rejected.Inc()
		}
		return err
	}
	return nil
}

// noteTerminal records a terminal transition written outside s.mu
// (Shutdown's aborts) in the bounded store: the job becomes evictable
// and the store trims back under its bounds. runJob and Cancel write
// the state and this mark in one s.mu section instead. Callers must
// not hold j.mu.
func (s *Service) noteTerminal(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A concurrent resubmission may have re-enqueued the job between
	// the state write and this bookkeeping; a live job must not be
	// marked evictable.
	if !j.State().Terminal() {
		return
	}
	s.store.markTerminal(j.ID, 0)
	s.evictLocked()
}

// evictLocked trims the store under its bounds, reflecting each
// eviction in telemetry.
func (s *Service) evictLocked() {
	s.store.evict(func(j *Job, reason string) {
		s.tel.evicted(j.State(), reason)
	})
	s.tel.resultBytes.Set(float64(s.store.resultBytes()))
}

// Get returns a job by ID, marking it recently used.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.get(id)
}

// List returns every retained job's status in submission order.
func (s *Service) List() []Status {
	s.mu.Lock()
	jobs := s.store.list()
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// Cancel stops a job: a queued job leaves the queue and turns
// canceled immediately; a running job's context is canceled and the
// job turns canceled once its worker observes it (poll the status).
// Terminal jobs are left as they are; the returned state is the
// job's state as of the call.
func (s *Service) Cancel(id string) (State, error) {
	s.mu.Lock()
	j, ok := s.store.get(id)
	if !ok {
		s.mu.Unlock()
		return "", ErrUnknownJob
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// Best-effort queue removal; if a worker popped the job but
		// has not started it, the state check in runJob skips it.
		// As in runJob, s.mu spans the state write and the store mark.
		s.q.remove(id)
		j.state = StateCanceled
		j.err = "canceled before start"
		j.cancelled = true
		j.announceLocked(StateCanceled, j.err)
		ev, fl := j.events, j.flight
		j.mu.Unlock()
		s.store.markTerminal(j.ID, 0)
		s.evictLocked()
		s.mu.Unlock()
		ev.close()
		s.tel.transition(StateQueued, StateCanceled)
		s.dumpFlight(j, fl, StateCanceled)
		return StateCanceled, nil
	case StateRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
		s.mu.Unlock()
		return StateRunning, nil
	default:
		st := j.state
		j.mu.Unlock()
		s.mu.Unlock()
		return st, nil
	}
}

// worker drains the queue until the service shuts down.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one dequeued job under a fresh context with the
// configured deadline and resolves its terminal state. The worker
// goroutine carries pprof labels (tenant, job) for the duration, so
// CPU profiles attribute simulation time to tenants and jobs.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled between pop and start.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	tr, enqueued := j.trace, j.enqueued
	j.announceLocked(StateRunning, "")
	j.mu.Unlock()
	tr.Record(obs.Span{
		Name:      "queue-wait",
		Start:     enqueued,
		WallDurUS: float64(j.started.Sub(enqueued)) / float64(time.Microsecond),
	})
	s.tel.transition(StateQueued, StateRunning)
	if s.cfg.beforeRun != nil {
		s.cfg.beforeRun(ctx, j)
	}

	ctx = obs.NewContext(ctx, tr)
	var res Result
	var run *trace.Run
	var err error
	pprof.Do(ctx, pprof.Labels(
		"aapm_tenant", tenantLabel(j.Spec.Tenant),
		"aapm_job", j.ID,
	), func(ctx context.Context) {
		res, run, err = s.execute(ctx, j)
	})
	wall := time.Since(j.started)
	s.tel.jobWall.Observe(wall.Seconds())
	s.noteWall(wall)
	tr.Record(obs.Span{
		Name:      "run",
		Start:     j.started,
		WallDurUS: float64(wall) / float64(time.Microsecond),
	})

	to, detail := StateDone, ""
	if err != nil {
		j.mu.Lock()
		cancelled := j.cancelled
		j.mu.Unlock()
		switch {
		case s.baseCtx.Err() != nil:
			to, detail = StateAborted, "service shut down mid-run"
		case cancelled:
			to, detail = StateCanceled, "canceled mid-run"
		case errors.Is(err, context.DeadlineExceeded):
			to, detail = StateFailed, fmt.Sprintf("deadline exceeded (%s)", s.cfg.JobTimeout)
		default:
			to, detail = StateFailed, err.Error()
		}
	}

	// The terminal state and the store's evictable mark are written in
	// one s.mu section: a client that sees the job terminal must never
	// see a submission evict some more recently used job instead of it.
	s.mu.Lock()
	j.mu.Lock()
	j.wall = wall
	j.state = to
	j.err = detail
	var resultLen int
	if err == nil {
		b, merr := json.Marshal(res)
		if merr != nil {
			// A Result holds only scalars and strings; Marshal cannot
			// fail — but never store a half-built cache entry.
			j.state, j.err = StateFailed, merr.Error()
			to = StateFailed
		} else {
			j.result = b
			j.run = run
			resultLen = len(b)
		}
	}
	j.announceLocked(to, detail)
	ev, fl := j.events, j.flight
	j.mu.Unlock()
	s.store.markTerminal(j.ID, resultLen)
	s.evictLocked()
	s.mu.Unlock()
	ev.close()
	s.tel.transition(StateRunning, to)
	if to == StateDone {
		s.tel.tenantCompleted(j.Spec.Tenant)
	}

	// Feed the SLO engine: completion latency for every finished run,
	// the error budget (failed/aborted spend it; done and deliberate
	// cancels do not), and the per-tenant fairness share on completions.
	s.slo.ObserveLatency(SLOCompletionLatency, wall.Seconds())
	s.slo.Observe(SLOErrorRate, to == StateDone || to == StateCanceled)
	if to == StateDone {
		s.slo.ObserveKey(SLOTenantFairness, tenantLabel(j.Spec.Tenant))
	}
	s.dumpFlight(j, fl, to)
}

// dumpFlight persists the attempt's flight-recorder ring into the job
// record when the outcome warrants a postmortem: any non-done terminal
// state, or a terminal transition while an SLO objective is burning.
func (s *Service) dumpFlight(j *Job, fl *obs.FlightRecorder, to State) {
	if fl == nil {
		return
	}
	if to == StateDone {
		if healthy, _ := s.slo.Healthy(); healthy {
			return
		}
	}
	b, err := json.Marshal(fl.Dump())
	if err != nil {
		return // a FlightDump holds only scalars; Marshal cannot fail
	}
	j.mu.Lock()
	j.flightDump = b
	j.mu.Unlock()
}

// Shutdown gracefully stops the service: intake closes (submissions
// get ErrClosed), still-queued jobs turn aborted without running, and
// running jobs drain. If ctx expires before the drain completes, the
// running jobs' contexts are canceled and Shutdown waits for the
// workers to observe it, returning ctx's error.
func (s *Service) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	if s.fleet != nil {
		s.fleet.stop()
	}
	for _, j := range s.q.close() {
		j.mu.Lock()
		if j.state != StateQueued {
			j.mu.Unlock()
			continue
		}
		j.state = StateAborted
		j.err = "service shut down before the job started"
		j.announceLocked(StateAborted, j.err)
		ev, fl := j.events, j.flight
		j.mu.Unlock()
		ev.close()
		s.tel.transition(StateQueued, StateAborted)
		s.dumpFlight(j, fl, StateAborted)
		s.noteTerminal(j)
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.baseCancel()
		<-drained
		err = ctx.Err()
	}
	s.baseCancel()
	return err
}
