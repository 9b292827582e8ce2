package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mpsched/internal/antichain"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// span is one timed call of the traced run.
type span struct {
	name       string
	req        int32 // the request the span belongs to
	parent     int32 // index of the parent span; -1 for a request's root
	start, end time.Duration
}

// tracer keeps every span in memory; the run writes them out at the end.
// Only the replay goroutine records, so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.epoch) }

// restart moves span i's start to now, for a span whose children were
// recorded before its own call began.
func (t *tracer) restart(i int32) { t.spans[i].start = time.Since(t.epoch) }

// The span tree of one request. "client" is the round trip to the daemon
// and "server" the same request through an in-process Server.ServeHTTP.
// The layer spans under "server" replay the handler's path by calling
// each layer's public function on the same bytes, just before or just
// after ServeHTTP; under "pipeline" they nest in time as well.
//
//	client
//	└ server
//	  ├ wire.decode.<codec>
//	  ├ dfg.decode                  JSON requests: the inline graph
//	  ├ pipeline                    per job
//	  │ ├ dfg.fingerprint
//	  │ ├ store.get
//	  │ ├ antichain                 on a miss; parallel at 48 nodes
//	  │ ├ patsel
//	  │ ├ sched
//	  │ └ store.put
//	  ├ sched.lower_bound           on a miss, as the response is built
//	  └ wire.encode.<codec>         per job
const (
	spanClient     = "client"
	spanServer     = "server"
	spanDFGDecode  = "dfg.decode"
	spanPipeline   = "pipeline"
	spanFP         = "dfg.fingerprint"
	spanStoreGet   = "store.get"
	spanAntichain  = "antichain"
	spanPatsel     = "patsel"
	spanSched      = "sched"
	spanStorePut   = "store.put"
	spanLowerBound = "sched.lower_bound"
)

// keySuffix stands in for the configuration part of the pipeline's cache
// key (selection, scheduling, architecture, spans and stop stage), with
// the same length, so the replayed store hashes keys of the real size.
const keySuffix = "|5,4,1,0.5,20,false,false,false,false|0,0,0,false,0|-|-|0"

// replayer calls the daemon's layers in process, in the order the
// handler does, and counts what they report.
type replayer struct {
	tr    *tracer
	store pipeline.ResultCache // same default capacity as the daemon's
	sel   patsel.Config

	parallelCalls, antichains, classes, steps, cycles, gap int
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{
		tr:    tr,
		store: pipeline.NewShardedCache(0, 0),
		sel:   patsel.Config{Pdef: maxPatterns}.WithDefaults(),
	}
}

// decodeJobs decodes a request body as the handler does: one compile
// request, or a batch envelope.
func decodeJobs(r *request) ([]wire.CompileRequest, error) {
	if r.path == "/v1/compile" {
		var req wire.CompileRequest
		err := r.codec.DecodeRequest(bytes.NewReader(r.body), &req)
		return []wire.CompileRequest{req}, err
	}
	var b wire.BatchRequest
	err := r.codec.DecodeBatch(bytes.NewReader(r.body), &b)
	return b.Jobs, err
}

// graphOf returns the job's graph, decoding the inline JSON form when the
// codec left it undecoded.
func (rp *replayer) graphOf(job *wire.CompileRequest, id, parent int32) (*dfg.Graph, error) {
	if job.Graph != nil {
		return job.Graph, nil
	}
	s := rp.tr.begin(spanDFGDecode, id, parent)
	g := new(dfg.Graph)
	err := json.Unmarshal(job.DFG, g)
	rp.tr.end(s)
	return g, err
}

// compile replays the pipeline for one graph and returns the schedule it
// computed, or nil on a store hit.
func (rp *replayer) compile(g *dfg.Graph, id, parent int32) (*sched.Schedule, error) {
	tr := rp.tr
	p := tr.begin(spanPipeline, id, parent)
	defer tr.end(p)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := tr.begin(spanFP, id, p)
	key := g.Fingerprint() + keySuffix
	tr.end(s)
	s = tr.begin(spanStoreGet, id, p)
	_, hit := rp.store.Get(key)
	tr.end(s)
	if hit {
		return nil, nil
	}

	acfg := antichain.Config{MaxSize: rp.sel.C, MaxSpan: rp.sel.MaxSpan}
	s = tr.begin(spanAntichain, id, p)
	var census *antichain.Result
	var err error
	if g.N() >= pipeline.DefaultParallelEnumNodes {
		census, err = antichain.EnumerateParallel(g, acfg, 0)
		rp.parallelCalls++
	} else {
		census, err = antichain.Enumerate(g, acfg)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	rp.antichains += census.Total()
	rp.classes += len(census.Classes)

	s = tr.begin(spanPatsel, id, p)
	sel, err := patsel.SelectFrom(g, census, rp.sel)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	rp.steps += len(sel.Steps)

	s = tr.begin(spanSched, id, p)
	sc, err := sched.MultiPattern(g, sel.Patterns, sched.Options{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if err := sc.Verify(); err != nil {
		return nil, err
	}
	// The store holds the replay's keys only; the value is never read.
	s = tr.begin(spanStorePut, id, p)
	rp.store.Put(key, nil)
	tr.end(s)
	return sc, nil
}

// replay runs the handler path of r under the server span. resps are the
// daemon's answers, which the replay re-encodes and must agree with.
func (rp *replayer) replay(r *request, resps []*wire.CompileResponse, id, parent int32) error {
	tr := rp.tr
	codec := r.codec.Name()
	s := tr.begin("wire.decode."+codec, id, parent)
	jobs, err := decodeJobs(r)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	var out bytes.Buffer
	items := r.codec.NewItemWriter(&out)
	for i := range jobs {
		g, err := rp.graphOf(&jobs[i], id, parent)
		if err != nil {
			return fmt.Errorf("replay graph decode: %w", err)
		}
		sc, err := rp.compile(g, id, parent)
		if err != nil {
			return fmt.Errorf("replay compile: %w", err)
		}
		if sc != nil {
			s = tr.begin(spanLowerBound, id, parent)
			lb, err := sched.LowerBound(g, sc.Patterns)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("replay lower bound: %w", err)
			}
			if sc.Length() != resps[i].Cycles || lb != resps[i].LowerBound {
				return fmt.Errorf("replay scheduled %d cycles (bound %d), the daemon %d (bound %d)",
					sc.Length(), lb, resps[i].Cycles, resps[i].LowerBound)
			}
			rp.cycles += sc.Length()
			rp.gap += sc.Length() - lb
		}
		s = tr.begin("wire.encode."+codec, id, parent)
		if r.path == "/v1/compile" {
			err = r.codec.EncodeResponse(&out, resps[i])
		} else {
			err = items.WriteItem(&wire.BatchItem{Index: i, Status: http.StatusOK, Result: resps[i]})
		}
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
	}
	return nil
}

// serveInProcess sends r through an in-process server's ServeHTTP.
func serveInProcess(srv *server.Server, r *request) ([]*wire.CompileResponse, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", r.codec.ContentType())
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: HTTP %d: %s", r.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	resps, errs, err := decodeResults(r, rec.Body.Bytes())
	if err != nil {
		return nil, err
	}
	return resps, errors.Join(errs...)
}

// interleave merges the clients' request lists round-robin: the order in
// which the traced run replays them, one at a time.
func interleave(lists [][]*request) []*request {
	var out []*request
	for i := 0; ; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// traced is the traced run. It sends the workload's requests one at a
// time twice, each time to a freshly set-up daemon: first untraced, then
// with every request also served by an in-process server and replayed
// layer by layer under spans. It writes the span dump and the per-layer
// table under out/trace and returns the per-layer metrics.
func traced(ctx context.Context, daemonBin string, w *workload, in *inputs, seed int64, out string) (*result, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	chk := newChecker()
	order := interleave(in.clients)

	setUp := func() (*daemon, error) {
		d, err := startDaemon(ctx, daemonBin, client)
		if err != nil {
			return nil, err
		}
		if err := warmUp(ctx, client, d.base, in, chk); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	}

	// Untraced pass: the baseline for trace.overhead_ratio.
	d, err := setUp()
	if err != nil {
		return nil, err
	}
	var untraced time.Duration
	var t tally
	for _, r := range order {
		untraced += exchange(ctx, client, d.base, r, chk, &t)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	client.CloseIdleConnections()

	// Traced pass.
	if d, err = setUp(); err != nil {
		return nil, err
	}
	defer d.kill()
	srv := server.New(server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer func() { _ = srv.Drain(context.Background()) }()
	tr := &tracer{}
	rp := newReplayer(tr)
	for _, gr := range in.warm {
		if _, err := serveInProcess(srv, compileRequest(gr, wire.Binary)); err != nil {
			return nil, fmt.Errorf("in-process warm-up: %w", err)
		}
		rp.store.Put(gr.d.Fingerprint()+keySuffix, nil)
	}
	storeBefore := rp.store.Stats()
	tr.epoch = time.Now()

	var reqBytes, respBytes int
	perCodec := map[string]int{}
	t = tally{}
	for i, r := range order {
		id := int32(i)
		root := tr.begin(spanClient, id, -1)
		body, err := post(ctx, client, d.base, r)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		resps, errs, err := decodeResults(r, body)
		if err == nil {
			err = errors.Join(errs...)
		}
		if err != nil {
			return nil, err
		}
		t.jobs += len(r.graphs)
		for j, gr := range r.graphs {
			if _, err := chk.check(gr, resps[j]); err != nil {
				chk.fail(err)
				continue
			}
			t.ok++
		}
		reqBytes += len(r.body)
		respBytes += len(body)
		perCodec[r.codec.Name()]++

		// The daemon keeps working for a moment after it answers (its
		// garbage collector, in proportion to the work it just did). Let
		// it finish, so that it does not compete for the cores with the
		// in-process timing. ServeHTTP and the replay then take turns at
		// going first, so that neither always pays for touching the
		// request's data first.
		time.Sleep(tr.spans[root].end - tr.spans[root].start)
		s := tr.begin(spanServer, id, root)
		replayFirst := i%2 == 1
		if replayFirst {
			if err := rp.replay(r, resps, id, s); err != nil {
				return nil, err
			}
			tr.restart(s)
		}
		local, err := serveInProcess(srv, r)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		for j := range local {
			if local[j].Cycles != resps[j].Cycles {
				return nil, fmt.Errorf("in-process server scheduled %d cycles, the daemon %d", local[j].Cycles, resps[j].Cycles)
			}
		}
		if !replayFirst {
			if err := rp.replay(r, resps, id, s); err != nil {
				return nil, err
			}
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	storeAfter := rp.store.Stats()

	layers := aggregate(tr.spans)
	reqs := float64(len(order))
	perReq := func(name string) float64 { return ms(layers[name].total) / reqs }
	perCodecReq := func(name, codec string) float64 {
		if perCodec[codec] == 0 {
			return 0
		}
		return ms(layers[name+"."+codec].total) / float64(perCodec[codec])
	}
	hits := storeAfter.Hits - storeBefore.Hits
	misses := storeAfter.Misses - storeBefore.Misses
	handler := layers[spanServer]
	m := map[string]metric{
		"antichain.busy_ms":        {perReq(spanAntichain), "ms"},
		"antichain.calls":          {float64(layers[spanAntichain].n), "count"},
		"antichain.parallel_calls": {float64(rp.parallelCalls), "count"},
		"antichain.antichains":     {float64(rp.antichains), "count"},
		"antichain.classes":        {float64(rp.classes), "count"},
		"antichain.handler_share":  {ratio(layers[spanAntichain].total, handler.total), "ratio"},
		"patsel.busy_ms":           {perReq(spanPatsel), "ms"},
		"patsel.steps":             {float64(rp.steps), "count"},
		"sched.busy_ms":            {perReq(spanSched), "ms"},
		"sched.lower_bound_ms":     {perReq(spanLowerBound), "ms"},
		"sched.cycles":             {float64(rp.cycles), "cycles"},
		"sched.gap":                {float64(rp.gap), "cycles"},
		"wire.decode_ms.json":      {perCodecReq("wire.decode", "json"), "ms"},
		"wire.decode_ms.binary":    {perCodecReq("wire.decode", "binary"), "ms"},
		"wire.encode_ms.json":      {perCodecReq("wire.encode", "json"), "ms"},
		"wire.encode_ms.binary":    {perCodecReq("wire.encode", "binary"), "ms"},
		"wire.request_bytes":       {float64(reqBytes) / reqs, "bytes"},
		"wire.response_bytes":      {float64(respBytes) / reqs, "bytes"},
		"dfg.decode_ms":            {perReq(spanDFGDecode), "ms"},
		"dfg.fingerprint_ms":       {perReq(spanFP), "ms"},
		"store.get_ms":             {perReq(spanStoreGet), "ms"},
		"store.put_ms":             {perReq(spanStorePut), "ms"},
		"store.hits":               {float64(hits), "count"},
		"store.misses":             {float64(misses), "count"},
		"store.evictions":          {float64(storeAfter.Evictions - storeBefore.Evictions), "count"},
		"store.hit_ratio":          {float64(hits) / float64(hits+misses), "ratio"},
		"pipeline.compile_self_ms": {ms(layers[spanPipeline].self) / reqs, "ms"},
		"server.handle_self_ms":    {ms(handler.self) / reqs, "ms"},
		"client.transport_ms":      {ms(layers[spanClient].self) / reqs, "ms"},
		"trace.coverage":           {ratio(handler.total-handler.self, handler.total), "ratio"},
		"trace.overhead_ratio":     {ratio(layers[spanClient].total, untraced), "ratio"},
	}
	if err := writeTrace(filepath.Join(out, "trace"), fmt.Sprintf("%s-seed%d", w.name, seed), tr.spans, layers, reqs, handler.total); err != nil {
		return nil, err
	}
	if chk.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed jobs; first: %v\n", chk.fails, chk.err)
	}
	attempted := t.jobs
	return &result{Correct: chk.fails == 0, Attempted: attempted, Failed: attempted - t.ok, Metrics: m}, nil
}

// layer sums one span name's durations and self times.
type layer struct {
	n           int
	total, self time.Duration
}

// aggregate computes each span's self time — its duration minus the
// summed durations of its children — and sums both by span name. Children
// of one span never overlap: the replay is sequential.
func aggregate(spans []span) map[string]layer {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	layers := map[string]layer{}
	for i, s := range spans {
		l := layers[s.name]
		l.n++
		l.total += s.end - s.start
		l.self += s.end - s.start - child[i]
		layers[s.name] = l
	}
	return layers
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeTrace writes the span dump (one TSV line per span) and the
// per-layer table, and prints the table to standard error.
func writeTrace(dir, stem string, spans []span, layers map[string]layer, reqs float64, handler time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.tsv"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tspan\tparent\tname\tstart_us\tend_us")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%.3f\t%.3f\n", s.req, i, s.parent, s.name,
			float64(s.start)/1e3, float64(s.end)/1e3)
	}
	if err := errors.Join(bw.Flush(), f.Close()); err != nil {
		return err
	}

	var table bytes.Buffer
	fmt.Fprintf(&table, "%-20s %8s %12s %12s %14s %10s\n", "layer", "spans", "total_ms", "self_ms", "self_ms/req", "of_handler")
	for _, name := range []string{spanClient, spanServer, "wire.decode.json", "wire.decode.binary", spanDFGDecode,
		spanPipeline, spanFP, spanStoreGet, spanAntichain, spanPatsel, spanSched, spanStorePut,
		spanLowerBound, "wire.encode.json", "wire.encode.binary"} {
		l := layers[name]
		fmt.Fprintf(&table, "%-20s %8d %12.3f %12.3f %14.6f %10.4f\n", name, l.n, ms(l.total), ms(l.self),
			ms(l.self)/reqs, ratio(l.self, handler))
	}
	os.Stderr.Write(table.Bytes())
	return os.WriteFile(filepath.Join(dir, stem+".layers.txt"), table.Bytes(), 0o644)
}
