package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// Span tracing: a request that passes through StartTrace carries an
// active trace in its context; every Registry.Span along the way both
// records the stage duration into the shared
// verifai_stage_duration_seconds{stage=...} histogram and appends a span
// to the trace. FinishTrace pushes the completed trace into the
// registry's bounded ring, served by GET /debug/traces.

// stageMetric is the histogram family every span records into.
const stageMetric = "verifai_stage_duration_seconds"

// Stages returns the per-stage duration histogram family Span records
// into, registering it if needed. Instrumented components call it once at
// wiring time so the family appears in expositions before the first span
// runs (a freshly booted, idle system still scrapes complete). Nil-safe.
func (r *Registry) Stages() *HistogramVec {
	if r == nil {
		return nil
	}
	return r.HistogramVecBuckets(stageMetric, "Duration of pipeline and storage stages by stage name.", StageBuckets, "stage")
}

// maxSpansPerTrace bounds one trace's span list; overflow is counted,
// not stored.
const maxSpansPerTrace = 128

// SpanRecord is one completed span inside a trace.
type SpanRecord struct {
	Name string `json:"name"`
	// StartOffset is the span's start relative to the trace start.
	StartOffset time.Duration `json:"start_offset_ns"`
	Duration    time.Duration `json:"duration_ns"`
}

// Trace is one finished request trace.
type Trace struct {
	ID       string        `json:"id"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Route and Status are filled by the HTTP middleware.
	Route   string       `json:"route,omitempty"`
	Status  int          `json:"status,omitempty"`
	Spans   []SpanRecord `json:"spans"`
	Dropped int          `json:"dropped_spans,omitempty"`
}

// activeTrace is the in-flight mutable form carried in a context.
type activeTrace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
}

type traceCtxKey struct{}

// StartTrace attaches a new active trace with the given ID to ctx.
// Subsequent Registry.Span calls on the derived context record spans into
// it; FinishTrace completes it into the ring. A nil registry returns ctx
// unchanged.
func (r *Registry) StartTrace(ctx context.Context, id string) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, &activeTrace{id: id, start: time.Now()})
}

// FinishTrace completes the trace attached to ctx (if any) and pushes it
// into the registry's ring, annotated with the HTTP route and status.
func (r *Registry) FinishTrace(ctx context.Context, route string, status int) {
	if r == nil {
		return
	}
	at, ok := ctx.Value(traceCtxKey{}).(*activeTrace)
	if !ok {
		return
	}
	at.mu.Lock()
	spans := make([]SpanRecord, len(at.spans))
	copy(spans, at.spans)
	dropped := at.dropped
	at.mu.Unlock()
	r.traces.add(Trace{
		ID: at.id, Start: at.start, Duration: time.Since(at.start),
		Route: route, Status: status, Spans: spans, Dropped: dropped,
	})
}

// Span starts a named span: the returned func records the elapsed time
// into the registry's per-stage histogram
// (verifai_stage_duration_seconds{stage=name}) and, when ctx carries a
// trace, appends the span to it. Usage:
//
//	defer reg.Span(ctx, "rerank")()
//
// Safe on a nil registry (histogram write is dropped; the ctx trace, if
// any, still collects the span).
func (r *Registry) Span(ctx context.Context, name string) func() {
	start := time.Now()
	h := r.Stages().With(name)
	at, _ := ctx.Value(traceCtxKey{}).(*activeTrace)
	return func() {
		d := time.Since(start)
		h.Observe(d.Seconds())
		if at == nil {
			return
		}
		at.mu.Lock()
		if len(at.spans) < maxSpansPerTrace {
			at.spans = append(at.spans, SpanRecord{
				Name: name, StartOffset: start.Sub(at.start), Duration: d,
			})
		} else {
			at.dropped++
		}
		at.mu.Unlock()
	}
}

// TraceRing is a bounded ring of recently finished traces.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	full bool
}

func newTraceRing(capacity int) *TraceRing {
	return &TraceRing{buf: make([]Trace, capacity)}
}

func (tr *TraceRing) add(t Trace) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.buf[tr.next] = t
	tr.next++
	if tr.next == len(tr.buf) {
		tr.next, tr.full = 0, true
	}
	tr.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (tr *TraceRing) Snapshot() []Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.next
	if tr.full {
		n = len(tr.buf)
	}
	out := make([]Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, tr.buf[(tr.next-i+len(tr.buf))%len(tr.buf)])
	}
	return out
}

// DebugHandler serves the debug surface for a registry:
//
//	/debug/pprof/*   the stdlib profiler endpoints
//	/debug/traces    the recent-trace ring as JSON, newest first
//	/metrics         Prometheus text exposition (handy on a side listener)
//
// It is deliberately not part of the server's API mux: the CLI's
// -debug-addr serves it on a side listener, and an embedder that wants it
// mounts it on a mux of its own.
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		traces := r.Traces().Snapshot()
		// Bound the response: newest 100 traces.
		if len(traces) > 100 {
			traces = traces[:100]
		}
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].Start.After(traces[j].Start) })
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(traces)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentTypeExposition)
		_ = r.WritePrometheus(w)
	})
	return mux
}

// ContentTypeExposition is the Prometheus text exposition content type.
const ContentTypeExposition = "text/plain; version=0.0.4; charset=utf-8"
