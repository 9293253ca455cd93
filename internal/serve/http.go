package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the service's REST surface:
//
//	POST   /api/jobs              submit (202 created, 200 existing/cache,
//	                              429 + Retry-After on a full queue)
//	GET    /api/jobs              list all jobs
//	GET    /api/jobs/{id}         job status
//	DELETE /api/jobs/{id}         cancel (queued or running)
//	GET    /api/jobs/{id}/result  cached result JSON (?format=csv for the
//	                              single-machine trace)
//	GET    /api/jobs/{id}/events  NDJSON progress stream until terminal
//	GET    /api/jobs/{id}/flight  flight-recorder dump (404 until one exists)
//	GET    /api/trace/{jobID}     recorded spans (?format=perfetto for a
//	                              Chrome trace-event rendering)
//	GET    /api/slo               SLO objective burn-rate status
//	POST   /api/intents           declare an intent against the resident
//	                              fleet (201 created, 200 idempotent
//	                              resubmission, 422 + structured reason
//	                              when infeasible, 503 without a fleet)
//	GET    /api/intents           fleet summary + every intent's status
//	GET    /api/intents/{id}         one intent's reconcile status
//	GET    /api/intents/{id}/status  alias for polling convergence
//	DELETE /api/intents/{id}      withdraw an intent
//	GET    /healthz               200 healthy / 503 + breach reasons
//
// Mount it alongside the dash handler and /metrics on one mux (see
// newMux in cmd/aapm-serve).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/jobs", s.handleJobs)
	mux.HandleFunc("/api/jobs/", s.handleJob)
	mux.HandleFunc("/api/trace/", s.handleTrace)
	mux.HandleFunc("/api/slo", s.handleSLO)
	mux.HandleFunc("/api/intents", s.handleIntents)
	mux.HandleFunc("/api/intents/", s.handleIntent)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleJobs serves the collection: submission and listing.
func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	default:
		w.Header().Set("Allow", "GET, POST")
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var js JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	j, created, err := s.Submit(js)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		// The backpressure contract: a full queue or an over-rate
		// tenant answers immediately and names a retry horizon derived
		// from the observed drain rate (mean job wall × backlog ÷
		// workers, clamped to [1, 60] s) instead of buffering.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter()/time.Second)))
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	code := http.StatusOK // existing job (dedup / cache hit)
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, j.status())
}

// handleJob routes /api/jobs/{id}[/result|/events].
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Get(id)
	if !ok {
		// An evicted job is gone but not forgotten: the 404 names the
		// eviction so callers can distinguish "never existed" from
		// "aged out — resubmit the spec to recompute it".
		if reason, evicted := s.EvictedReason(id); evicted {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":   "job evicted from the bounded store (" + reason + "); resubmit the spec to re-run it",
				"evicted": true,
				"reason":  reason,
			})
			return
		}
		httpError(w, http.StatusNotFound, ErrUnknownJob.Error())
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, j.status())
		case http.MethodDelete:
			st, err := s.Cancel(id)
			if err != nil {
				httpError(w, http.StatusNotFound, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": st})
		default:
			w.Header().Set("Allow", "GET, DELETE")
			httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	case "result":
		if !requireGet(w, r) {
			return
		}
		s.handleResult(w, r, j)
	case "events":
		if !requireGet(w, r) {
			return
		}
		s.handleEvents(w, r, j)
	case "flight":
		if !requireGet(w, r) {
			return
		}
		s.handleFlight(w, j)
	default:
		httpError(w, http.StatusNotFound, "unknown job subresource")
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request, j *Job) {
	j.mu.Lock()
	state, result, run := j.state, j.result, j.run
	errDetail := j.err
	j.mu.Unlock()
	if state != StateDone {
		msg := "job not finished"
		if state.Terminal() {
			msg = "job ended " + string(state)
			if errDetail != "" {
				msg += ": " + errDetail
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "state": state})
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		if run == nil {
			httpError(w, http.StatusBadRequest, "no per-interval trace for this job kind (cluster and experiment results are JSON only)")
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		_ = run.WriteCSV(w)
		return
	}
	// The bytes stored at completion, verbatim: every cache hit is
	// byte-identical to the first response.
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(result)
}

// handleEvents streams the job's progress log as NDJSON: buffered
// history first, then live events until the job reaches a terminal
// state (the final line) or the client disconnects.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	j.mu.Lock()
	log := j.events
	j.mu.Unlock()
	replay, ch, cancelSub := log.subscribe()
	defer cancelSub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	for _, line := range replay {
		if !writeLine(w, line) {
			return
		}
	}
	flush()
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return
			}
			if !writeLine(w, line) {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeLine(w http.ResponseWriter, line []byte) bool {
	if _, err := w.Write(line); err != nil {
		return false
	}
	_, err := w.Write([]byte("\n"))
	return err == nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	return true
}
