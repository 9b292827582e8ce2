package server

import (
	"fmt"
	"net/http"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
)

// statusWriter wraps the compile-path ResponseWriter to (1) capture the
// response status for the trace and (2) write the X-Mpsched-Trace echo
// header lazily, at the last moment before headers flush — the binary
// codec carries the trace ID inside the request frame, so the effective
// ID is only known after body decode, well into the handler.
type statusWriter struct {
	http.ResponseWriter
	// flusher is the underlying writer's Flusher, captured once so the
	// batch stream's per-burst Flush does not pay a type assertion each
	// time; nil when the underlying writer cannot flush.
	flusher http.Flusher
	trace   *obs.Trace
	status  int
}

func newStatusWriter(w http.ResponseWriter, tr *obs.Trace) *statusWriter {
	f, _ := w.(http.Flusher)
	return &statusWriter{ResponseWriter: w, flusher: f, trace: tr}
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		w.Header().Set(obs.TraceHeader, w.trace.ID())
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes through to the underlying writer: handleBatch streams
// items and flushes per burst, which must keep working through the
// wrapper.
func (w *statusWriter) Flush() {
	if w.flusher != nil {
		w.flusher.Flush()
	}
}

// Status returns the written status, or 200 for a handler that never
// wrote an explicit one.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// stageHook bridges the compiler's per-stage callbacks into both
// telemetry sinks: the stage-duration metrics and — namespaced
// "stage:*", nested inside the surrounding "compile" span — the
// request's trace. jobIdx tags batch jobs (-1 elsewhere). Cache hits
// run no stages and fire no hooks; observeCompileResult records their
// "stage:cache" span instead, so the warm path pays the hook nothing.
func (s *Server) stageHook(tr *obs.Trace, jobIdx int) pipeline.StageHook {
	return func(info pipeline.StageInfo) {
		s.metrics.stages[info.Stage.String()].Record(info.Elapsed)
		tr.Observe("stage:"+info.Stage.String(), jobIdx, time.Now().Add(-info.Elapsed), info.Elapsed)
	}
}

// observeCompileResult feeds one finished compile into both telemetry
// sinks: the outcome-labeled latency metric, the trace's "compile" span
// (derived from the pipeline's own Elapsed — one clock read, instead of
// a second timer pair around the call), and, for cache hits, the
// synthetic "stage:cache" stage (trace span + per-stage metric) — the
// whole compile was one cache lookup, which the stage hooks never saw.
// res is a pointer only to keep the per-job call on the batched storm
// path from copying the whole Result.
func (s *Server) observeCompileResult(tr *obs.Trace, jobIdx int, res *pipeline.Result) {
	s.observeCompile(res)
	if tr == nil {
		return
	}
	start := time.Now().Add(-res.Elapsed)
	tr.Observe("compile", jobIdx, start, res.Elapsed)
	if res.CacheHit {
		tr.Observe("stage:cache", jobIdx, start, res.Elapsed)
	}
}

// observeCompile records one compile attempt into the metrics: its
// outcome and latency — failed compiles record too, under their own
// outcome label — and, for a cache hit, the synthetic "cache" stage.
func (s *Server) observeCompile(res *pipeline.Result) {
	m := s.metrics
	m.compiles.Inc()
	if res.CacheHit {
		m.stages["cache"].Record(res.Elapsed)
	}
	if res.Err != nil {
		m.compileErrors.Inc()
		m.compileErr.Record(res.Elapsed)
		return
	}
	m.compileOK.Record(res.Elapsed)
}

// tracesResponse is the body of GET /debug/traces.
type tracesResponse struct {
	Traces []obs.TraceData `json:"traces"`
}

// maxTracesPage caps ?n= so a hostile query cannot make the handler
// render an arbitrary amount; the ring itself bounds the real maximum.
const maxTracesPage = 1024

// handleTraces serves GET /debug/traces: the most recent traces, newest
// first, up to ?n= (default 32).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &n); err != nil || n < 1 || n > maxTracesPage {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("n must be an integer in [1, %d]", maxTracesPage))
			return
		}
	}
	s.writeJSON(w, http.StatusOK, tracesResponse{Traces: s.traces.Recent(n)})
}

// handleTraceByID serves GET /debug/traces/{id}: one trace's full span
// breakdown, while it is still in the ring.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td, ok := s.traces.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no trace %q in the last %d", id, s.opts.TraceBuffer))
		return
	}
	s.writeJSON(w, http.StatusOK, td)
}
