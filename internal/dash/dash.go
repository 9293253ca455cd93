// Package dash serves the browser dashboard of the run service: pick
// a workload and a governor spec, submit it as a job to /api/jobs, and
// see the power/frequency/temperature timeline of its result rendered
// in the browser. The handler also serves the workload list, and the
// shared telemetry registry as /metrics and /api/telemetry. It is plain
// net/http with inline SVG — no external assets — and cmd/aapm-serve
// mounts it next to the job API.
package dash

import (
	"encoding/json"
	"html/template"
	"net/http"
	"net/http/pprof"

	"aapm/internal/spec"
	"aapm/internal/telemetry"
)

// Options configures the dashboard handler.
type Options struct {
	// Telemetry backs /metrics and /api/telemetry and must be non-nil:
	// it is the registry the run service's jobs feed, so scrapes see
	// the service, every job's run and the Go runtime.
	Telemetry *telemetry.Registry
	// PProf additionally mounts the net/http/pprof handlers under
	// /debug/pprof/ for live profiling of the simulator.
	PProf bool
}

// server holds the per-handler state behind the mux.
type server struct {
	reg *telemetry.Registry
}

// NewHandler returns the dashboard's HTTP handler. It panics without a
// registry.
func NewHandler(opts Options) http.Handler {
	if opts.Telemetry == nil {
		panic("dash: NewHandler needs a telemetry registry")
	}
	srv := &server{reg: opts.Telemetry}
	mux := http.NewServeMux()
	mux.HandleFunc("/", index)
	mux.HandleFunc("/api/workloads", apiWorkloads)
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

// requireGet answers non-GET requests with 405 + Allow.
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

func apiWorkloads(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, spec.Names())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
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
function poly(svg, ys) {
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
// The SLO panel stays hidden until /api/slo answers; the run service
// mounts it next to this page.
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
// A run is a job: submit the spec, read its event stream to the end
// (the stream closes when the job reaches a terminal state), then fetch
// the result summary and the per-interval CSV trace.
async function call(url, opts) {
  const data = await (await fetch(url, opts)).json();
  if (data.error) throw new Error(data.error);
  return data;
}
function columns(csv) {
  const lines = csv.trim().split('\n');
  const head = lines.shift().split(',');
  const rows = lines.map(l => l.split(','));
  return name => { const i = head.indexOf(name); return rows.map(r => +r[i]); };
}
document.getElementById('go').onclick = async () => {
  const summary = document.getElementById('summary');
  const seed = Number(document.getElementById('seed').value);
  if (!Number.isSafeInteger(seed)) { summary.textContent = 'error: bad seed'; return; }
  summary.textContent = 'running…';
  try {
    const job = await call('/api/jobs', {method: 'POST', body: JSON.stringify({
      workload: document.getElementById('workload').value,
      governor: document.getElementById('gov').value,
      seed: seed,
      thermal: true,
    })});
    const base = '/api/jobs/' + job.id;
    await (await fetch(base + '/events')).text();
    const data = await call(base + '/result');
    const col = columns(await (await fetch(base + '/result?format=csv')).text());
    summary.textContent =
      data.policy + ': ' + data.duration_sec.toFixed(2) + 's, ' +
      data.energy_j.toFixed(1) + 'J, avg ' + data.avg_power_w.toFixed(2) + 'W, ' +
      (data.transitions || 0) + ' transitions, ' + data.ticks + ' ticks';
    poly(document.getElementById('power'), col('meas_w'));
    poly(document.getElementById('freq'), col('freq_mhz'));
    poly(document.getElementById('temp'), col('temp_c'));
  } catch (e) {
    summary.textContent = 'error: ' + e.message;
  }
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
