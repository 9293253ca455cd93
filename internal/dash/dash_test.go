package dash

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aapm/internal/telemetry"
)

// handler returns a dashboard over a fresh registry, without pprof.
func handler() http.Handler {
	return NewHandler(Options{Telemetry: telemetry.NewRegistry()})
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestIndexServesHTML(t *testing.T) {
	rec := get(t, handler(), "/")
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
// when the endpoint answers. The run service serves /api/slo; this
// handler alone does not.
func TestIndexHasSLOPanel(t *testing.T) {
	body := get(t, handler(), "/").Body.String()
	for _, want := range []string{
		`id="slo"`, `id="slorows"`, "/api/slo",
		"fast burn", "slow burn", "peak fast", "peak slow",
		"o.breaching", "peak_fast_burn",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// The panel starts hidden: this handler alone has no /api/slo.
	if !strings.Contains(body, `<div id="slo" style="display:none">`) {
		t.Error("SLO panel must start hidden")
	}
}

func TestIndexNotFoundElsewhere(t *testing.T) {
	rec := get(t, handler(), "/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

func TestAPIWorkloads(t *testing.T) {
	rec := get(t, handler(), "/api/workloads")
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

// TestGetOnlyEndpointsMethodNotAllowed pins the read-only contract on
// the GET surfaces: anything but GET answers 405 and names the allowed
// method.
func TestGetOnlyEndpointsMethodNotAllowed(t *testing.T) {
	h := handler()
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

func TestPProfMounting(t *testing.T) {
	// Off by default.
	if rec := get(t, handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", rec.Code)
	}
	h := NewHandler(Options{Telemetry: telemetry.NewRegistry(), PProf: true})
	rec := get(t, h, "/debug/pprof/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index: status = %d", rec.Code)
	}
	if rec := get(t, h, "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline: status = %d", rec.Code)
	}
}

func TestNewHandlerNeedsRegistry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHandler without a registry did not panic")
		}
	}()
	NewHandler(Options{})
}
