package dash

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aapm/internal/machine"
	"aapm/internal/telemetry"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestIndexServesHTML(t *testing.T) {
	rec := get(t, Handler(), "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "aapm dashboard") {
		t.Error("index missing title")
	}
}

// TestIndexHasSLOPanel pins the burn-rate panel: the page ships a
// hidden SLO section whose script polls /api/slo and reveals it only
// when the endpoint answers (i.e. when the dash shares a mux with the
// run service, as in cmd/aapm-serve).
func TestIndexHasSLOPanel(t *testing.T) {
	body := get(t, Handler(), "/").Body.String()
	for _, want := range []string{
		`id="slo"`, `id="slorows"`, "/api/slo",
		"fast burn", "slow burn", "peak fast", "peak slow",
		"o.breaching", "peak_fast_burn",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// The panel starts hidden: a standalone dash has no /api/slo.
	if !strings.Contains(body, `<div id="slo" style="display:none">`) {
		t.Error("SLO panel must start hidden")
	}
}

func TestIndexNotFoundElsewhere(t *testing.T) {
	rec := get(t, Handler(), "/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

func TestAPIWorkloads(t *testing.T) {
	rec := get(t, Handler(), "/api/workloads")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var names []string
	if err := json.Unmarshal(rec.Body.Bytes(), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 26 {
		t.Errorf("workloads = %d", len(names))
	}
}

func TestAPIRun(t *testing.T) {
	rec := get(t, Handler(), "/api/run?workload=gzip&gov=ps:floor=0.8&seed=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload != "gzip" || !strings.HasPrefix(resp.Policy, "PS(") {
		t.Errorf("resp header = %+v", resp)
	}
	if resp.DurationSec <= 0 || len(resp.Rows) == 0 {
		t.Error("degenerate run payload")
	}
	// The thermal model is always on for the dashboard.
	if resp.Rows[len(resp.Rows)-1].TempC <= 0 {
		t.Error("missing temperature series")
	}
	// Stage timing is always on for the dashboard: every stage gets a
	// wall-clock entry and at least one must be nonzero.
	if len(resp.Metrics.StageUs) != machine.NumStages {
		t.Fatalf("stage_us has %d entries, want %d: %v", len(resp.Metrics.StageUs), machine.NumStages, resp.Metrics.StageUs)
	}
	var total float64
	for _, us := range resp.Metrics.StageUs {
		if us < 0 {
			t.Errorf("negative stage wall-clock: %v", resp.Metrics.StageUs)
		}
		total += us
	}
	if total <= 0 {
		t.Errorf("all stage wall-clocks zero: %v", resp.Metrics.StageUs)
	}
	if resp.Metrics.Ticks != len(resp.Rows) {
		t.Errorf("metrics.ticks = %d, want %d rows", resp.Metrics.Ticks, len(resp.Rows))
	}
}

func TestAPIRunErrors(t *testing.T) {
	cases := map[string]int{
		"/api/run":                              http.StatusBadRequest,
		"/api/run?workload=nope":                http.StatusNotFound,
		"/api/run?workload=gzip&gov=bogus":      http.StatusBadRequest,
		"/api/run?workload=gzip&seed=notanint":  http.StatusBadRequest,
		"/api/run?workload=gzip&seed=7abc":      http.StatusBadRequest, // trailing garbage Sscanf used to accept
		"/api/run?workload=gzip&seed=0x10":      http.StatusBadRequest,
		"/api/run?workload=gzip&gov=pm:limit=x": http.StatusBadRequest,
	}
	for path, want := range cases {
		rec := get(t, Handler(), path)
		if rec.Code != want {
			t.Errorf("%s -> %d, want %d", path, rec.Code, want)
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error payload %q", path, rec.Body.String())
		}
	}
}

func TestAPIRunMethodNotAllowed(t *testing.T) {
	h := Handler()
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req := httptest.NewRequest(method, "/api/run?workload=gzip", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /api/run -> %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
			t.Errorf("%s /api/run Allow = %q, want GET", method, allow)
		}
	}
}

// TestGetOnlyEndpointsMethodNotAllowed pins the read-only contract on
// the GET surfaces: anything but GET answers 405 and names the allowed
// method.
func TestGetOnlyEndpointsMethodNotAllowed(t *testing.T) {
	h := Handler()
	for _, path := range []string{"/api/workloads", "/api/telemetry", "/metrics"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req := httptest.NewRequest(method, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s -> %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s Allow = %q, want GET", method, path, allow)
			}
		}
	}
}

// TestAPIRunNoGovernor pins the gov=none path: control.Parse returns a
// nil governor there, which used to panic when building the telemetry
// observer's policy label.
func TestAPIRunNoGovernor(t *testing.T) {
	rec := get(t, Handler(), "/api/run?workload=gzip&gov=none&seed=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp runResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload != "gzip" || len(resp.Rows) == 0 {
		t.Errorf("degenerate run payload: %+v", resp)
	}
}

// TestAPIRunClientDisconnect checks the run loop honors the request
// context: with the context already canceled the handler abandons the
// simulation and writes no payload.
func TestAPIRunClientDisconnect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/run?workload=gzip&gov=pm:limit=14.5", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Errorf("canceled request still produced %d bytes", rec.Body.Len())
	}
}

// TestMetricsEndpoint drives a run and checks /metrics serves valid
// Prometheus text with the acceptance floor of 10 metric families.
func TestMetricsEndpoint(t *testing.T) {
	h := Handler()
	if rec := get(t, h, "/api/run?workload=gzip&gov=pm:limit=14.5"); rec.Code != http.StatusOK {
		t.Fatalf("run status = %d: %s", rec.Code, rec.Body.String())
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	if n := strings.Count(body, "# TYPE "); n < 10 {
		t.Errorf("exposition has %d families, want >= 10:\n%s", n, body)
	}
	for _, want := range []string{
		"# TYPE " + telemetry.MetricTicks + " counter",
		"# TYPE " + telemetry.MetricIntervalW + " histogram",
		"# TYPE go_goroutines gauge",
		telemetry.MetricTicks + `{node="gzip",governor=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Counters accumulate across requests on the same handler.
	tickLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, telemetry.MetricTicks+"{") {
				return line
			}
		}
		return ""
	}
	first := tickLine(body)
	if rec := get(t, h, "/api/run?workload=gzip&gov=pm:limit=14.5"); rec.Code != http.StatusOK {
		t.Fatalf("second run status = %d", rec.Code)
	}
	second := tickLine(get(t, h, "/metrics").Body.String())
	if first == "" || first == second {
		t.Errorf("tick counter did not accumulate: %q then %q", first, second)
	}
}

func TestAPITelemetry(t *testing.T) {
	h := Handler()
	if rec := get(t, h, "/api/run?workload=gzip&gov=ps:floor=0.8"); rec.Code != http.StatusOK {
		t.Fatalf("run status = %d", rec.Code)
	}
	rec := get(t, h, "/api/telemetry")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var sawTicks bool
	for _, f := range snap.Families {
		if f.Name == telemetry.MetricTicks {
			sawTicks = true
			if len(f.Series) == 0 || f.Series[0].Value <= 0 {
				t.Errorf("tick series = %+v", f.Series)
			}
		}
	}
	if !sawTicks {
		t.Error("snapshot missing the ticks family")
	}
}

func TestPProfMounting(t *testing.T) {
	// Off by default.
	if rec := get(t, Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", rec.Code)
	}
	h := NewHandler(Options{PProf: true})
	rec := get(t, h, "/debug/pprof/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index: status = %d", rec.Code)
	}
	if rec := get(t, h, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline: status = %d", rec.Code)
	}
}
