package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aapm/internal/machine"
	"aapm/internal/serve"
	"aapm/internal/telemetry"
)

// newTestServer serves aapm-serve's real mux over a fresh service and
// registry.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	svc := serve.New(serve.Config{Telemetry: reg})
	ts := httptest.NewServer(newMux(svc, reg, false))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return ts
}

// get returns the response of a GET, its body read and closed.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// dashRun is what the dashboard page reads for one run.
type dashRun struct {
	status serve.Status
	result serve.Result
	rows   [][]string // the CSV trace, header first
}

// runLikeDashboard does what the page's run button does: submit the
// spec as a job, read its event stream to the end, then fetch the
// result JSON and its CSV trace.
func runLikeDashboard(t *testing.T, base, spec string) dashRun {
	t.Helper()
	resp, err := http.Post(base+"/api/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var submitted serve.Status
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s = %d (%v)", spec, resp.StatusCode, err)
	}
	jobURL := base + "/api/jobs/" + submitted.ID
	// The event stream closes once the job is terminal.
	if resp, _ := get(t, jobURL+"/events"); resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	var run dashRun
	_, body := get(t, jobURL)
	if err := json.Unmarshal([]byte(body), &run.status); err != nil {
		t.Fatal(err)
	}
	if run.status.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", run.status.State, run.status.Error)
	}
	resp, body = get(t, jobURL+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &run.result); err != nil {
		t.Fatal(err)
	}
	resp, body = get(t, jobURL+"/result?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv result = %d: %s", resp.StatusCode, body)
	}
	if run.rows, err = csv.NewReader(strings.NewReader(body)).ReadAll(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestDashboardIndex(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, want := range []string{"aapm dashboard", "/api/jobs"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

// TestDashboardRun runs a PS job with the thermal model on, as the
// page submits it, and checks the result has what the page plots.
func TestDashboardRun(t *testing.T) {
	ts := newTestServer(t)
	run := runLikeDashboard(t, ts.URL, `{"workload":"gzip","governor":"ps:floor=0.8","seed":3,"thermal":true}`)
	if run.result.Workload != "gzip" || !strings.HasPrefix(run.result.Policy, "PS(") {
		t.Errorf("result header = %+v", run.result)
	}
	if run.result.DurationSec <= 0 || len(run.rows) < 2 {
		t.Fatal("degenerate run payload")
	}
	if n := len(run.rows) - 1; run.result.Ticks != n {
		t.Errorf("result ticks = %d, want %d CSV rows", run.result.Ticks, n)
	}
	col := map[string]int{}
	for i, name := range run.rows[0] {
		col[name] = i
	}
	for _, name := range []string{"t_ms", "freq_mhz", "meas_w", "ipc", "dpc", "phase", "temp_c", "duty"} {
		if _, ok := col[name]; !ok {
			t.Errorf("CSV lacks column %q", name)
		}
	}
	last := run.rows[len(run.rows)-1]
	if temp, err := strconv.ParseFloat(last[col["temp_c"]], 64); err != nil || temp <= 0 {
		t.Errorf("last row temp_c = %q, want > 0", last[col["temp_c"]])
	}
}

// TestDashboardRunNoGovernor pins the governor "none" path:
// control.Parse returns a nil governor there, which once panicked when
// building the telemetry observer's policy label. The run records the
// static policy, and its telemetry carries the same label.
func TestDashboardRunNoGovernor(t *testing.T) {
	ts := newTestServer(t)
	run := runLikeDashboard(t, ts.URL, `{"workload":"gzip","governor":"none","seed":3,"thermal":true}`)
	if run.result.Workload != "gzip" || run.result.Ticks == 0 {
		t.Errorf("degenerate run payload: %+v", run.result)
	}
	if run.result.Policy != machine.StaticPolicy {
		t.Errorf("result policy %q, want %q", run.result.Policy, machine.StaticPolicy)
	}
	_, body := get(t, ts.URL+"/metrics")
	if line, want := tickLine(body), fmt.Sprintf(`governor=%q}`, run.result.Policy); !strings.Contains(line, want) {
		t.Errorf("tick line %q does not carry the result's policy (%s)", line, want)
	}
}

// tickLine returns the exposition line of gzip's tick counter.
func tickLine(exposition string) string {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, telemetry.MetricTicks+`{node="gzip",governor=`) {
			return line
		}
	}
	return ""
}

// TestMetricsEndpoint checks /metrics serves valid Prometheus text with
// at least 10 metric families, and that job runs accumulate in it.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	const spec = `{"workload":"gzip","governor":"pm:limit=14.5","seed":%d,"thermal":true}`
	runLikeDashboard(t, ts.URL, fmt.Sprintf(spec, 1))
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
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
	// The same spec again is a cache hit and runs nothing, so the
	// second job takes another seed.
	first := tickLine(body)
	runLikeDashboard(t, ts.URL, fmt.Sprintf(spec, 2))
	_, body = get(t, ts.URL+"/metrics")
	if second := tickLine(body); first == "" || first == second {
		t.Errorf("tick counter did not accumulate: %q then %q", first, second)
	}
}

func TestAPITelemetry(t *testing.T) {
	ts := newTestServer(t)
	runLikeDashboard(t, ts.URL, `{"workload":"gzip","governor":"ps:floor=0.8","seed":3,"thermal":true}`)
	resp, body := get(t, ts.URL+"/api/telemetry")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
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
