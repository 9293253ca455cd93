# Tier-1 gate (what CI must keep green): build + full test suite.
.PHONY: test
test:
	go build ./...
	go test ./...

# Full suite under the race detector (the session loop, experiment
# parallelism and cluster lockstep all share state on purpose).
.PHONY: race
race:
	go test -race ./...

.PHONY: vet
vet:
	go vet ./...

# Every fuzz target for a short burst each; lengthen -fuzztime for a
# real campaign. Go allows one -fuzz target per package invocation.
FUZZTIME ?= 10s
.PHONY: fuzz-short
fuzz-short:
	go test ./internal/control -fuzz FuzzGovernorDecisions -fuzztime $(FUZZTIME)
	go test ./internal/control -fuzz FuzzParseGovernorSpec -fuzztime $(FUZZTIME)
	go test ./internal/faults -fuzz FuzzFaultPlan -fuzztime $(FUZZTIME)
	go test ./internal/phase -fuzz FuzzParseWorkloadJSON -fuzztime $(FUZZTIME)
	go test ./internal/kernel -fuzz FuzzBatchStep -fuzztime $(FUZZTIME)
	go test ./internal/kernel -fuzz FuzzCharacterizeFastForward -fuzztime $(FUZZTIME)
	go test ./internal/kernel -fuzz FuzzCharacterizeResident -fuzztime $(FUZZTIME)
	go test ./internal/kernel -fuzz FuzzAddRepeated -fuzztime $(FUZZTIME)
	go test ./internal/machine -fuzz FuzzCoastHorizon -fuzztime $(FUZZTIME)
	go test ./internal/machine -fuzz FuzzRepeatMemos -fuzztime $(FUZZTIME)
	go test ./internal/alloc -fuzz FuzzWaterfill -fuzztime $(FUZZTIME)
	go test ./internal/cache -fuzz FuzzCacheMatchesReference -fuzztime $(FUZZTIME)

# Refresh the golden trace fixtures after an intentional trace change:
# the single-machine PM/PS traces and the shared-budget cluster fixture
# (TestGoldenCluster, testdata/golden_cluster.csv). Also covers the
# Prometheus exposition fixture in internal/telemetry, the tick
# engine's differential reference (internal/kernel/testdata/
# staged_reference.json, every TestBatchMatchesStaged case) and the
# aapm-eval registry output at seed 7, scale 16 (TestGoldenEval,
# internal/experiment/testdata/golden_eval.txt).
.PHONY: golden-update
golden-update:
	go test . -run TestGolden -update
	go test ./internal/telemetry -run TestPrometheusGolden -update
	go test ./internal/kernel -run TestBatchMatchesStaged -update
	go test ./internal/experiment -run TestGoldenEval -update

# One-iteration telemetry overhead smoke: the hook-bus/observer cost
# benchmarks compile and run.
.PHONY: telemetry-smoke
telemetry-smoke:
	go test -run '^$$' -bench 'BenchmarkTelemetry' -benchtime 1x .

# End-to-end smoke of the run service: build aapm-serve, start it on a
# loopback port, check the dashboard page and its workload list, submit
# the golden-config job over HTTP, poll until done, and assert the
# result and the serve metrics look sane.
SERVE_SMOKE_ADDR ?= 127.0.0.1:18080
.PHONY: serve-smoke
serve-smoke:
	go build -o /tmp/aapm-serve ./cmd/aapm-serve
	@set -e; \
	/tmp/aapm-serve -addr $(SERVE_SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -sf $(SERVE_SMOKE_ADDR)/metrics >/dev/null && break; sleep 0.1; done; \
	curl -sf $(SERVE_SMOKE_ADDR)/ | grep -q 'aapm dashboard' \
		|| { echo "dashboard page missing at /"; exit 1; }; \
	n=$$(curl -sf $(SERVE_SMOKE_ADDR)/api/workloads | jq length); \
	[ "$$n" = 26 ] || { echo "/api/workloads lists $$n names, want 26"; exit 1; }; \
	id=$$(curl -sf -X POST $(SERVE_SMOKE_ADDR)/api/jobs \
		-d '{"workload":"ammp","governor":"pm:limit=14.5","seed":1,"iterations":1}' | jq -r .id); \
	echo "submitted $$id"; \
	state=queued; \
	for i in $$(seq 1 100); do \
		state=$$(curl -sf $(SERVE_SMOKE_ADDR)/api/jobs/$$id | jq -r .state); \
		case $$state in done|failed|canceled|aborted) break;; esac; \
		sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "job ended $$state"; exit 1; }; \
	avg=$$(curl -sf $(SERVE_SMOKE_ADDR)/api/jobs/$$id/result | jq .avg_power_w); \
	echo "avg_power_w=$$avg"; \
	awk -v a="$$avg" 'BEGIN { exit !(a > 0) }' || { echo "degenerate avg power"; exit 1; }; \
	curl -sf $(SERVE_SMOKE_ADDR)/metrics | grep -q aapm_serve_queue_depth \
		|| { echo "metrics missing the serve family"; exit 1; }; \
	echo "serve smoke OK"

# Observability smoke: against a live aapm-serve with tracing forced
# on, /healthz answers healthy, /api/slo lists the default objectives,
# a submitted fleet job's spans are retrievable from /api/trace/{id}
# (including the Perfetto rendering), and every NDJSON event line
# carries the trace ID and sequence number.
OBS_SMOKE_ADDR ?= 127.0.0.1:18082
.PHONY: obs-smoke
obs-smoke:
	go build -o /tmp/aapm-serve ./cmd/aapm-serve
	@set -e; \
	/tmp/aapm-serve -addr $(OBS_SMOKE_ADDR) -trace-sample 1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -sf $(OBS_SMOKE_ADDR)/healthz >/dev/null && break; sleep 0.1; done; \
	curl -sf $(OBS_SMOKE_ADDR)/healthz | jq -e '.healthy == true' >/dev/null \
		|| { echo "healthz not healthy"; exit 1; }; \
	curl -sf $(OBS_SMOKE_ADDR)/api/slo | jq -e '.healthy == true and ([.objectives[].name] | contains(["submit_p99","error_rate"]))' >/dev/null \
		|| { echo "slo objectives missing"; exit 1; }; \
	id=$$(curl -sf -X POST $(OBS_SMOKE_ADDR)/api/jobs \
		-d '{"workload":"gzip","seed":7,"nodes":8,"budget_w":120,"levels":2,"fanout":4,"iterations":1}' | jq -r .id); \
	echo "submitted $$id"; \
	state=queued; \
	for i in $$(seq 1 100); do \
		state=$$(curl -sf $(OBS_SMOKE_ADDR)/api/jobs/$$id | jq -r .state); \
		case $$state in done|failed|canceled|aborted) break;; esac; \
		sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "job ended $$state"; exit 1; }; \
	curl -sf $(OBS_SMOKE_ADDR)/api/trace/$$id | jq -e \
		'.sampled == true and ([.spans[].name] | (contains(["intake","queue-wait","run","shard-step"])))' >/dev/null \
		|| { echo "trace spans missing"; exit 1; }; \
	curl -sf "$(OBS_SMOKE_ADDR)/api/trace/$$id?format=perfetto" | jq -e 'map(select(.ph == "X")) | length > 0' >/dev/null \
		|| { echo "perfetto rendering empty"; exit 1; }; \
	curl -sf $(OBS_SMOKE_ADDR)/api/jobs/$$id/events | head -1 | jq -e '.seq == 1 and .trace != ""' >/dev/null \
		|| { echo "event stream missing seq/trace"; exit 1; }; \
	echo "obs smoke OK"

# Span-propagation and SLO suites under the race detector, exactly as
# CI runs them.
.PHONY: obs-race
obs-race:
	go test -race -count=1 ./internal/obs/
	go test -race -count=1 -run 'TestTraceFollowsFleetJob|TestHealthzFlipsOnSLOBurn|TestTenantSeriesCapCollapsesToOther' ./internal/serve/
	go test -race -count=1 -run 'TestClusterTraceSpans|TestFleetTraceSpansPerLevel' ./internal/cluster/

# Sustained-load smoke: aapm-loadgen drives a bounded two-tenant
# aapm-serve with open-loop arrivals and gates on zero 5xx plus a p99
# submit-latency bound. Short by design; lengthen -duration and raise
# -rate for a real soak (see BENCH_serve.json for the recorded
# fairness run).
SERVE_LOAD_ADDR ?= 127.0.0.1:18081
.PHONY: serve-load-smoke
serve-load-smoke:
	go build -o /tmp/aapm-serve ./cmd/aapm-serve
	go build -o /tmp/aapm-loadgen ./cmd/aapm-loadgen
	@set -e; \
	/tmp/aapm-serve -addr $(SERVE_LOAD_ADDR) -workers 2 -queue 512 \
		-max-jobs 128 -max-result-bytes 16777216 -tenant-weights acme=2,dunder=1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -sf $(SERVE_LOAD_ADDR)/metrics >/dev/null && break; sleep 0.1; done; \
	/tmp/aapm-loadgen -addr http://$(SERVE_LOAD_ADDR) -rate 100 -duration 5s \
		-profile flash -tenants acme=2,dunder=1 -iterations 10 -seed-base 900000 \
		-server-pid $$pid -settle 60s -max-submit-p99 250ms -json /tmp/loadgen-smoke.json; \
	echo "serve load smoke OK"

# Intent-orchestration smoke: aapm-serve hosts a resident fleet, a
# declared power cap converges through the reconcile loop, and an
# infeasible floor bounces with HTTP 422 plus a machine-readable
# reason code.
INTENT_SMOKE_ADDR ?= 127.0.0.1:18083
.PHONY: intent-smoke
intent-smoke:
	go build -o /tmp/aapm-serve ./cmd/aapm-serve
	@set -e; \
	/tmp/aapm-serve -addr $(INTENT_SMOKE_ADDR) -fleet-nodes 8 -fleet-fanout 4 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do curl -sf $(INTENT_SMOKE_ADDR)/api/intents >/dev/null && break; sleep 0.1; done; \
	id=$$(curl -sf -X POST $(INTENT_SMOKE_ADDR)/api/intents \
		-d '{"kind":"cap","level":1,"group":0,"watts":30}' | jq -r .id); \
	echo "declared cap $$id"; \
	state=converging; \
	for i in $$(seq 1 150); do \
		state=$$(curl -sf $(INTENT_SMOKE_ADDR)/api/intents/$$id/status | jq -r .state); \
		[ "$$state" = converged ] && break; \
		sleep 0.1; \
	done; \
	[ "$$state" = converged ] || { echo "cap never converged"; exit 1; }; \
	obs=$$(curl -sf $(INTENT_SMOKE_ADDR)/api/intents/$$id/status | jq .observed_w); \
	echo "converged at $$obs W"; \
	awk -v o="$$obs" 'BEGIN { exit !(o <= 30.000001) }' \
		|| { echo "converged state over the 30 W cap"; exit 1; }; \
	code=$$(curl -s -o /tmp/intent-reject.json -w '%{http_code}' -X POST \
		$(INTENT_SMOKE_ADDR)/api/intents -d '{"kind":"floor","level":1,"group":1,"watts":500}'); \
	[ "$$code" = 422 ] || { echo "infeasible floor answered $$code, want 422"; exit 1; }; \
	jq -e '.reason.code == "floor-exceeds-cap" and .reason.detail != ""' /tmp/intent-reject.json >/dev/null \
		|| { echo "422 without structured reason: $$(cat /tmp/intent-reject.json)"; exit 1; }; \
	echo "intent smoke OK"

# Intent reconcile, admission edge-case, and closed-loop suites under
# the race detector, exactly as CI runs them.
.PHONY: intent-race
intent-race:
	go test -race -count=1 ./internal/intent/
	go test -race -count=1 -run 'TestIntentAPI|TestFleetHost|TestFleetHeterogeneousFloors' ./internal/serve/ ./internal/cluster/

# Sustained-churn regression (bounded store under ≫MaxJobs distinct
# specs) under the race detector, exactly as CI runs it.
.PHONY: serve-churn
serve-churn:
	go test -race -run 'TestSustainedChurn|TestEvictionPrefersLRUAndSkipsLive|TestMaxResultBytesEviction' -count=1 ./internal/serve/

# Allocation gate + fixture differential, the same test list CI's
# "Race (tick engine fixture differential)" step runs under -race: a
# tick must stay at zero heap allocations, every run must reproduce the
# recorded reference fixture
# (internal/kernel/testdata/staged_reference.json) bit for bit with and
# without the full event order, clean lanes of a full batch must match
# their lean one-lane runs, a Multiplexed governor must select the
# event order of its inner governor, a wrapped governor's
# degradations must reach the run's log, coasting nodes must match
# a batch with no steady table and a fleet on the full event order,
# the repeat memos must match their loops, and a fleet whose epochs
# repeat must match one that allocates every epoch.
.PHONY: tick-gate
tick-gate:
	go test -run 'TestBatchMatchesStaged|TestBatchMultiNodeMatchesStaged|TestBatchMixedConfigMatchesSessions|TestBatchKindMultiplexed|TestBatchTickAllocs|TestSteadyTickMatchesGeneral|TestCoastMatchesGeneral|TestSettledLaneWrites|TestPaperPowerModelShared|TestWrappersForwardDegradations|TestGoldenCluster|TestFleetCoastMatchesObserved|TestShardCoastFold|FuzzCoastHorizon|FuzzRepeatMemos|TestFleetRepeatEpochs|TestAssembleDemandRepeats' ./internal/kernel/ ./internal/machine/ ./internal/model/ ./internal/control/ ./internal/cluster/ .
	go test -run '^$$' -bench BenchmarkBatchTick -benchtime 1000x -benchmem .

# Fleet-scale smoke: a 100k-node, multi-epoch hierarchical run must
# finish and stay inside the tested per-node memory budget (the
# TotalAlloc gate in TestFleetMemoryBudget), plus the one-level golden
# fixture, the multi-level determinism differential and one 100k-node
# batch build (BenchmarkNewBatchFleet, B/node).
.PHONY: fleet-smoke
fleet-smoke:
	go test -run TestGoldenCluster .
	go test -run TestFleetMultiLevelDeterministic ./internal/cluster/
	go test -run TestFleetMemoryBudget -count=1 ./internal/cluster/
	go test -run '^$$' -bench BenchmarkNewBatchFleet -benchtime 1x -benchmem ./internal/machine/

.PHONY: all
all: vet test race
