// Command aapm-serve runs the asynchronous run service: submit
// simulation jobs over HTTP, poll or stream their progress, and fetch
// cached results. The browser dashboard at / submits its runs as jobs
// and plots their results; it and the Prometheus /metrics endpoint
// share the mux and telemetry registry, so one scrape sees the service,
// every job's run, and the Go runtime.
//
// Usage:
//
//	aapm-serve [-addr :8080] [-queue 64] [-workers 4] [-job-timeout 2m]
//	           [-max-jobs N] [-max-result-bytes N] [-tenant-weights a=2,b=1]
//	           [-tenant-rate R] [-tenant-burst B] [-pprof]
//	           [-trace-sample 0.01] [-trace-tenant-sample a=1,b=0]
//	           [-trace-out trace.json]
//	           [-fleet-nodes N] [-fleet-levels 2] [-fleet-fanout 8]
//	           [-fleet-budget W] [-fleet-epoch-ticks 10] [-fleet-ticks 400]
//	           [-fleet-deadline 8]
//
// Quick start:
//
//	aapm-serve &
//	curl -s -X POST localhost:8080/api/jobs \
//	  -d '{"workload":"ammp","governor":"pm:limit=14.5","seed":1}'
//	curl -s localhost:8080/api/jobs/<id>            # poll status
//	curl -sN localhost:8080/api/jobs/<id>/events    # stream progress
//	curl -s localhost:8080/api/jobs/<id>/result     # cached result
//
// The dashboard at http://localhost:8080/ runs the same jobs from the
// browser and plots their power, frequency and temperature traces.
//
// With -fleet-nodes > 0 the service hosts a resident synthetic fleet
// and mounts the declarative intent API:
//
//	aapm-serve -fleet-nodes 32 &
//	curl -s -X POST localhost:8080/api/intents \
//	  -d '{"kind":"cap","level":1,"group":0,"watts":60}'
//	curl -s localhost:8080/api/intents/<id>/status   # poll convergence
//
// SIGINT/SIGTERM shuts down gracefully: intake stops, queued jobs are
// marked aborted, running jobs drain (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aapm/internal/dash"
	"aapm/internal/serve"
	"aapm/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "pending-job queue depth (full queue answers 429)")
	workers := flag.Int("workers", 4, "execution pool cap; effective pool is min(GOMAXPROCS, workers)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job execution deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound for running jobs")
	maxJobs := flag.Int("max-jobs", 0, "bound on retained jobs; terminal jobs evict LRU beyond it (0 = unbounded)")
	maxResultBytes := flag.Int64("max-result-bytes", 0, "bound on retained result bytes across Done jobs (0 = unbounded)")
	tenantWeights := flag.String("tenant-weights", "", "fair-share weights as name=w pairs, e.g. acme=2,dunder=1 (unlisted tenants weigh 1)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant intake rate in new submissions/sec (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant intake burst; 0 derives max(1, 2*rate)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	traceSample := flag.Float64("trace-sample", 0.01, "head-sampling rate for job traces in [0,1]")
	traceTenant := flag.String("trace-tenant-sample", "", "per-tenant sampling overrides as name=rate pairs, e.g. acme=1,batch=0")
	traceOut := flag.String("trace-out", "", "append sampled spans as a Chrome trace-event JSON file (viewable in Perfetto)")
	fleetNodes := flag.Int("fleet-nodes", 0, "resident-fleet node count; > 0 hosts a fleet and enables /api/intents")
	fleetLevels := flag.Int("fleet-levels", 2, "resident-fleet allocation-tree depth")
	fleetFanout := flag.Int("fleet-fanout", 8, "resident-fleet group fanout")
	fleetBudget := flag.Float64("fleet-budget", 0, "resident-fleet root power budget in watts (0 derives 12*nodes)")
	fleetEpochTicks := flag.Int("fleet-epoch-ticks", 10, "resident-fleet reallocation period in ticks")
	fleetTicks := flag.Int("fleet-ticks", 400, "resident-fleet generation length in ticks")
	fleetDeadline := flag.Int("fleet-deadline", 0, "intent escalation deadline in reconcile epochs (0 = controller default)")
	flag.Parse()

	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fatal(err)
	}
	tenantRates, err := parseRates(*traceTenant)
	if err != nil {
		fatal(err)
	}
	var export *telemetry.TraceEventWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		export = telemetry.NewTraceEventWriter(f)
		defer func() {
			_ = export.Close()
			_ = f.Close()
		}()
	}

	reg := telemetry.NewRegistry()
	svc := serve.New(serve.Config{
		QueueDepth:       *queue,
		Workers:          *workers,
		JobTimeout:       *jobTimeout,
		MaxJobs:          *maxJobs,
		MaxResultBytes:   *maxResultBytes,
		TenantWeights:    weights,
		TenantRatePerSec: *tenantRate,
		TenantBurst:      *tenantBurst,
		Telemetry:        reg,
		TraceSampleRate:  *traceSample,
		TenantTraceRate:  tenantRates,
		TraceExport:      export,
		Fleet:            fleetOptions(*fleetNodes, *fleetLevels, *fleetFanout, *fleetBudget, *fleetEpochTicks, *fleetTicks, *fleetDeadline),
	})

	srv := &http.Server{Addr: *addr, Handler: newMux(svc, reg, *pprofOn)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	host := *addr
	if strings.HasPrefix(host, ":") {
		host = "localhost" + host
	}
	fmt.Printf("aapm run service listening on %s (%d workers, queue %d)\n", *addr, svc.Workers(), *queue)
	fmt.Printf("  dashboard: http://%s/\n", host)
	fmt.Printf("  submit:    POST http://%s/api/jobs\n", host)
	fmt.Printf("  metrics:   http://%s/metrics\n", host)
	fmt.Printf("  health:    http://%s/healthz  (SLO burn: /api/slo, traces: /api/trace/{job})\n", host)
	if *pprofOn {
		fmt.Printf("  profiling: http://%s/debug/pprof/\n", host)
	}
	if *fleetNodes > 0 {
		fmt.Printf("  intents:   POST http://%s/api/intents  (resident fleet: %d nodes)\n", host, *fleetNodes)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		fmt.Printf("aapm-serve: %s — draining (up to %s)\n", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "aapm-serve: http shutdown:", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "aapm-serve: drain timed out; running jobs aborted")
	}
}

// newMux assembles the one mux aapm-serve listens on: the job API and
// the dashboard, which also serves /metrics and /api/telemetry from the
// registry the jobs feed and, with pprof, /debug/pprof/.
func newMux(svc *serve.Service, reg *telemetry.Registry, pprof bool) *http.ServeMux {
	api := svc.Handler()
	mux := http.NewServeMux()
	for _, path := range []string{"/api/jobs", "/api/jobs/", "/api/trace/", "/api/slo", "/api/intents", "/api/intents/", "/healthz"} {
		mux.Handle(path, api)
	}
	mux.Handle("/", dash.NewHandler(dash.Options{Telemetry: reg, PProf: pprof}))
	return mux
}

// fleetOptions builds the resident-fleet config, or nil when no fleet
// is requested.
func fleetOptions(nodes, levels, fanout int, budget float64, epochTicks, ticks, deadline int) *serve.FleetOptions {
	if nodes <= 0 {
		return nil
	}
	return &serve.FleetOptions{
		Nodes:           nodes,
		Levels:          levels,
		Fanout:          fanout,
		BudgetW:         budget,
		EpochTicks:      epochTicks,
		GenerationTicks: ticks,
		DeadlineEpochs:  deadline,
	}
}

// parseWeights turns "acme=2,dunder=1" into a weight map. Empty input
// means every tenant weighs 1 (plain round-robin).
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tenant-weights entry %q: want name=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights weight %q: want integer >= 1", val)
		}
		out[name] = w
	}
	return out, nil
}

// parseRates turns "acme=1,batch=0" into per-tenant sampling-rate
// overrides.
func parseRates(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -trace-tenant-sample entry %q: want name=rate", pair)
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad -trace-tenant-sample rate %q: want a number in [0,1]", val)
		}
		out[name] = r
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aapm-serve:", err)
	os.Exit(1)
}
