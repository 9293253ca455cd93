// Package dash serves an interactive dashboard over the simulated
// platform: pick a workload and a governor spec, run it, and see the
// power/frequency/temperature timeline rendered in the browser. The
// handler is plain net/http with inline SVG — no external assets — so
// cmd/aapm-dash stays a single static binary.
package dash

import (
	"encoding/json"
	"html/template"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"aapm/internal/control"
	"aapm/internal/machine"
	"aapm/internal/sensor"
	"aapm/internal/spec"
	"aapm/internal/telemetry"
	"aapm/internal/thermal"
	"aapm/internal/trace"
)

// Options configures the dashboard handler.
type Options struct {
	// Telemetry backs /metrics and /api/telemetry; nil allocates a
	// registry private to this handler. Every /api/run feeds it, so
	// scrapes see counters accumulated across requests.
	Telemetry *telemetry.Registry
	// PProf additionally mounts the net/http/pprof handlers under
	// /debug/pprof/ for live profiling of the simulator.
	PProf bool
}

// server holds the per-handler state behind the mux.
type server struct {
	reg *telemetry.Registry
}

// Handler returns the dashboard's HTTP handler with default options.
func Handler() http.Handler { return NewHandler(Options{}) }

// NewHandler returns the dashboard's HTTP handler.
func NewHandler(opts Options) http.Handler {
	srv := &server{reg: opts.Telemetry}
	if srv.reg == nil {
		srv.reg = telemetry.NewRegistry()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", index)
	mux.HandleFunc("/api/workloads", apiWorkloads)
	mux.HandleFunc("/api/run", srv.apiRun)
	mux.HandleFunc("/api/telemetry", srv.apiTelemetry)
	mux.HandleFunc("/metrics", srv.metrics)
	if opts.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requireGet answers non-GET requests with 405 + Allow, the same
// contract as /api/run.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return false
	}
	return true
}

// metrics serves the registry in Prometheus text exposition format,
// refreshing the Go runtime gauges on every scrape.
func (srv *server) metrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	telemetry.SampleRuntime(srv.reg)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = srv.reg.WritePrometheus(w)
}

// apiTelemetry serves the registry as structured JSON — the same data
// as /metrics, for clients that would rather not parse exposition
// text.
func (srv *server) apiTelemetry(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, srv.reg.Snapshot())
}

// runRow is the JSON shape of one trace interval.
type runRow struct {
	TMs     float64 `json:"t_ms"`
	FreqMHz int     `json:"freq_mhz"`
	PowerW  float64 `json:"power_w"`
	IPC     float64 `json:"ipc"`
	DPC     float64 `json:"dpc"`
	TempC   float64 `json:"temp_c,omitempty"`
	Duty    float64 `json:"duty,omitempty"`
	Phase   string  `json:"phase"`
}

// runMetrics is the engine-counter block of /api/run: the run's own
// totals and the session's per-stage wall-clock.
type runMetrics struct {
	Ticks             int     `json:"ticks"`
	Transitions       int     `json:"transitions"`
	FailedTransitions int     `json:"failed_transitions,omitempty"`
	StallMs           float64 `json:"stall_ms"`
	Degradations      int     `json:"degradations,omitempty"`
	// StageUs is per-stage wall-clock (microseconds, summed over the
	// run) keyed by machine.StageNames — real time spent simulating,
	// not virtual time.
	StageUs map[string]float64 `json:"stage_us,omitempty"`
}

// runResponse is the JSON payload of /api/run.
type runResponse struct {
	Workload    string     `json:"workload"`
	Policy      string     `json:"policy"`
	DurationSec float64    `json:"duration_sec"`
	EnergyJ     float64    `json:"energy_j"`
	AvgPowerW   float64    `json:"avg_power_w"`
	Transitions int        `json:"transitions"`
	Metrics     runMetrics `json:"metrics"`
	Rows        []runRow   `json:"rows"`
}

func apiWorkloads(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, spec.Names())
}

// maxRunSeconds bounds a dashboard run so a request cannot hold the
// server arbitrarily long (simulated seconds, not wall-clock; the
// simulator covers a minute of virtual time in well under a second).
const maxRunSeconds = 300

func (srv *server) apiRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	q := r.URL.Query()
	name := q.Get("workload")
	if name == "" {
		httpError(w, http.StatusBadRequest, "missing workload parameter")
		return
	}
	wl, err := spec.ByName(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	govSpec := q.Get("gov")
	if govSpec == "" {
		govSpec = "none"
	}
	var seed int64 = 7
	if s := q.Get("seed"); s != "" {
		// ParseInt rejects trailing garbage ("7abc") that Sscanf's %d
		// would silently accept.
		seed, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed")
			return
		}
	}
	tc := thermal.PentiumMThermal()
	m, err := machine.New(machine.Config{
		Chain:    sensor.NIDefault(),
		Seed:     seed,
		Thermal:  &tc,
		MaxTicks: maxRunSeconds * 100,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	gov, err := control.Parse(govSpec, m.Table())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s, err := m.NewSession(wl, gov)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	policy := "none"
	if gov != nil {
		policy = gov.Name()
	}
	s.Subscribe(telemetry.NewObserver(srv.reg, name, policy))
	s.EnableStageTiming()
	ctx := r.Context()
	for {
		// A disconnected client cancels the request context: abandon
		// the simulation instead of burning a core to completion for
		// a response nobody will read.
		if ctx.Err() != nil {
			return
		}
		done, err := s.Step()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if done {
			break
		}
	}
	writeJSON(w, toResponse(s.Result(), s.StageNanos()))
}

func toResponse(run *trace.Run, stageNanos [machine.NumStages]int64) runResponse {
	resp := runResponse{
		Workload:    run.Workload,
		Policy:      run.Policy,
		DurationSec: run.Duration.Seconds(),
		EnergyJ:     run.EnergyJ,
		AvgPowerW:   run.AvgPowerW(),
		Transitions: run.Transitions,
		Metrics: runMetrics{
			Ticks:             run.Ticks,
			Transitions:       run.Transitions,
			FailedTransitions: run.FailedTransitions,
			StallMs:           float64(run.StallTime) / float64(time.Millisecond),
			Degradations:      run.DegradationTotal(),
		},
	}
	if stageNanos != ([machine.NumStages]int64{}) {
		resp.Metrics.StageUs = make(map[string]float64, machine.NumStages)
		for i, n := range stageNanos {
			resp.Metrics.StageUs[machine.StageNames[i]] = float64(n) / 1e3
		}
	}
	for i := range run.Rows {
		row := &run.Rows[i]
		resp.Rows = append(resp.Rows, runRow{
			TMs:     float64(row.T) / float64(time.Millisecond),
			FreqMHz: row.FreqMHz,
			PowerW:  row.MeasuredPowerW,
			IPC:     row.IPC,
			DPC:     row.DPC,
			TempC:   row.TempC,
			Duty:    row.Duty,
			Phase:   run.PhaseName(row),
		})
	}
	return resp
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are out; nothing more to do than drop the conn.
		return
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>aapm dashboard</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; max-width: 70rem; }
svg { border: 1px solid #ccc; width: 100%; height: 16rem; }
label { margin-right: 1rem; }
#summary { margin: 1rem 0; font-variant-numeric: tabular-nums; }
#slo table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
#slo th, #slo td { border: 1px solid #ccc; padding: 0.2rem 0.6rem; text-align: left; }
#slo .breach { color: #b00; font-weight: bold; }
</style></head>
<body>
<h1>aapm — simulated Pentium M power management</h1>
<p>Pick a workload and a governor spec (e.g. <code>pm:limit=14.5</code>,
<code>ps:floor=0.8</code>, <code>thermal:limit=75</code>, <code>none</code>).</p>
<label>workload <select id="workload"></select></label>
<label>governor <input id="gov" value="pm:limit=14.5" size="28"></label>
<label>seed <input id="seed" value="7" size="4"></label>
<button id="go">run</button>
<div id="summary"></div>
<div id="slo" style="display:none">
<h3>SLO burn rates</h3>
<table><thead><tr>
<th>objective</th><th>kind</th><th>fast burn</th><th>slow burn</th>
<th>peak fast</th><th>peak slow</th><th>state</th>
</tr></thead><tbody id="slorows"></tbody></table>
</div>
<h3>power (W)</h3><svg id="power" viewBox="0 0 1000 200" preserveAspectRatio="none"></svg>
<h3>frequency (MHz)</h3><svg id="freq" viewBox="0 0 1000 200" preserveAspectRatio="none"></svg>
<h3>die temperature (°C)</h3><svg id="temp" viewBox="0 0 1000 200" preserveAspectRatio="none"></svg>
<script>
async function init() {
  const names = await (await fetch('/api/workloads')).json();
  const sel = document.getElementById('workload');
  for (const n of names) {
    const o = document.createElement('option');
    o.value = o.textContent = n;
    sel.appendChild(o);
  }
  sel.value = 'ammp';
}
function poly(svg, xs, ys) {
  svg.innerHTML = '';
  if (!ys.length) return;
  const lo = Math.min(...ys), hi = Math.max(...ys), span = (hi - lo) || 1;
  const pts = ys.map((y, i) =>
    (1000 * i / (ys.length - 1 || 1)).toFixed(1) + ',' +
    (195 - 190 * (y - lo) / span).toFixed(1)).join(' ');
  const pl = document.createElementNS('http://www.w3.org/2000/svg', 'polyline');
  pl.setAttribute('points', pts);
  pl.setAttribute('fill', 'none');
  pl.setAttribute('stroke', '#0a5');
  pl.setAttribute('stroke-width', '1.5');
  svg.appendChild(pl);
  const label = document.createElementNS('http://www.w3.org/2000/svg', 'text');
  label.setAttribute('x', 5); label.setAttribute('y', 14);
  label.setAttribute('font-size', 12);
  label.textContent = lo.toFixed(1) + ' … ' + hi.toFixed(1);
  svg.appendChild(label);
}
// The SLO panel only appears when the dashboard shares a mux with the
// run service (cmd/aapm-serve): a standalone dash has no /api/slo, the
// fetch 404s, and the panel stays hidden.
async function slo() {
  let data;
  try {
    const resp = await fetch('/api/slo');
    if (!resp.ok) return;
    data = await resp.json();
  } catch (e) { return; }
  if (!data.objectives) return;
  const tb = document.getElementById('slorows');
  tb.innerHTML = '';
  for (const o of data.objectives) {
    const tr = document.createElement('tr');
    const state = o.breaching ? 'BREACH — ' + (o.reason || 'burn over threshold') : 'ok';
    const cells = [o.name, o.kind, o.fast_burn.toFixed(3), o.slow_burn.toFixed(3),
                   o.peak_fast_burn.toFixed(3), o.peak_slow_burn.toFixed(3), state];
    for (const v of cells) {
      const td = document.createElement('td');
      td.textContent = v;
      tr.appendChild(td);
    }
    if (o.breaching) tr.className = 'breach';
    tb.appendChild(tr);
  }
  document.getElementById('slo').style.display = '';
  setTimeout(slo, 5000);
}
document.getElementById('go').onclick = async () => {
  const w = document.getElementById('workload').value;
  const g = encodeURIComponent(document.getElementById('gov').value);
  const s = document.getElementById('seed').value;
  const resp = await fetch('/api/run?workload=' + w + '&gov=' + g + '&seed=' + s);
  const data = await resp.json();
  if (data.error) { document.getElementById('summary').textContent = 'error: ' + data.error; return; }
  document.getElementById('summary').textContent =
    data.policy + ': ' + data.duration_sec.toFixed(2) + 's, ' +
    data.energy_j.toFixed(1) + 'J, avg ' + data.avg_power_w.toFixed(2) + 'W, ' +
    data.transitions + ' transitions, ' + data.metrics.ticks + ' ticks, ' +
    data.metrics.stall_ms.toFixed(1) + 'ms stalled';
  poly(document.getElementById('power'), null, data.rows.map(r => r.power_w));
  poly(document.getElementById('freq'), null, data.rows.map(r => r.freq_mhz));
  poly(document.getElementById('temp'), null, data.rows.map(r => r.temp_c));
};
init();
slo();
</script>
</body></html>`))

func index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, nil)
}
