package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the program's exported entry points. Every span of one
// workload run carries the same trace ID; Parent links it to the span
// that caused it (possibly in the parent process).
type span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	trace  string
	prefix string

	mu    sync.Mutex
	n     int
	spans []span
}

func newTracer(traceID, prefix string) *tracer {
	return &tracer{trace: traceID, prefix: prefix}
}

// begin opens a span and returns its ID ("" when tracing is off).
func (t *tracer) begin(name, parent string) string {
	if t == nil {
		return ""
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	id := fmt.Sprintf("%s.%d", t.prefix, t.n)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id string) {
	if t == nil || id == "" {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = now
			return
		}
	}
}

// record adds an already-timed span.
func (t *tracer) record(name, parent string, start, end time.Time) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	id := fmt.Sprintf("%s.%d", t.prefix, t.n)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that
// its direct children cover (overlapping children count once).
func selfTime(s span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for k, v := range iv {
		if k == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	covered += curHi - curLo
	return s.dur() - time.Duration(covered)
}

// layerSummary sums duration, self time and count per span name.
type layerSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	TotS  float64 `json:"total_s"`
	SelfS float64 `json:"self_s"`
}

func summarize(spans []span) []layerSummary {
	kids := map[string][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	by := map[string]*layerSummary{}
	var names []string
	for _, s := range spans {
		l, ok := by[s.Name]
		if !ok {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
			names = append(names, s.Name)
		}
		l.Count++
		l.TotS += s.dur().Seconds()
		l.SelfS += selfTime(s, kids[s.ID]).Seconds()
	}
	sort.Strings(names)
	out := make([]layerSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// writeTrace writes a run's spans and per-layer self times under dir.
func writeTrace(dir, traceID string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, traceID+".json")
	b, err := json.MarshalIndent(struct {
		Trace  string         `json:"trace"`
		Layers []layerSummary `json:"layers"`
		Spans  []span         `json:"spans"`
	}{traceID, summarize(spans), spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
