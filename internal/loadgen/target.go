package loadgen

import (
	"context"
	"errors"
	"net/http"

	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pipeline"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// Item is one compile the generators replay: a resolved graph for the
// in-process path and the spec string that regenerates the identical graph
// on a remote daemon. Both paths compile the same fingerprint — the corpus
// generators are deterministic — so local and remote measurements are of
// the same work.
type Item struct {
	// Spec is the workload spec (e.g. "random:seed=7,n=96,colors=3").
	Spec string
	// Graph is the locally resolved graph; nil for remote-only items.
	Graph *dfg.Graph
	// Select parameterises pattern selection for this item.
	Select patsel.Config
}

// Reply is the classified outcome of one request. Exactly one of the
// success (Err == nil, Rejected false), rejected (Rejected true) and error
// (Err != nil) states holds; CacheHit is meaningful only on success.
type Reply struct {
	// Err is a hard failure: a failed compile, a non-2xx/non-429 response,
	// a transport error.
	Err error
	// Rejected marks backpressure (HTTP 429 queue-full) — expected under
	// overload and counted separately from errors.
	Rejected bool
	// CacheHit reports the compile was served from the result cache.
	CacheHit bool
}

// Target executes one compile per Do call. Implementations must be safe
// for concurrent use — the generators call Do from many goroutines.
type Target interface {
	// Name labels the target in results ("local", or the daemon URL).
	Name() string
	// Do runs one compile. Latency is measured by the caller.
	Do(ctx context.Context, it Item) Reply
}

// LocalTarget drives an in-process pipeline.Compiler — the zero-network
// baseline every remote measurement is compared against.
type LocalTarget struct {
	c      *pipeline.Compiler
	bypass bool
}

// NewLocalTarget builds an in-process target. With caching on (the
// default, mirroring the daemon) a warm run measures the cache path; with
// bypass every request pays the full census → select → schedule cost.
func NewLocalTarget(opts pipeline.Options, bypassCache bool) *LocalTarget {
	if opts.Cache == nil && !bypassCache {
		opts.Cache = pipeline.NewShardedCache(0, 0)
	}
	return &LocalTarget{c: pipeline.NewCompiler(opts), bypass: bypassCache}
}

// Name implements Target.
func (t *LocalTarget) Name() string { return "local" }

// Do implements Target.
func (t *LocalTarget) Do(ctx context.Context, it Item) Reply {
	if it.Graph == nil {
		return Reply{Err: errors.New("loadgen: item has no resolved graph for the local target")}
	}
	spec := pipeline.NewSpec(it.Graph,
		pipeline.WithName(it.Spec),
		pipeline.WithSelect(it.Select))
	if t.bypass {
		spec.Cache = pipeline.CacheBypass
	}
	rep, err := t.c.Compile(ctx, spec)
	if err != nil {
		return Reply{Err: err}
	}
	return Reply{CacheHit: rep.CacheHit}
}

// RemoteTarget drives a live mpschedd over its /v1/compile endpoint via
// the typed client.
type RemoteTarget struct {
	c *client.Client
}

// NewRemoteTarget builds a target for the daemon at baseURL.
func NewRemoteTarget(c *client.Client) *RemoteTarget { return &RemoteTarget{c: c} }

// Name implements Target.
func (t *RemoteTarget) Name() string { return t.c.BaseURL() }

// compileRequest lowers an Item to the wire request both remote targets
// send: spec-addressed (the daemon regenerates the identical graph) with
// the item's selection knobs spelled out.
func compileRequest(it Item) wire.CompileRequest {
	return wire.CompileRequest{
		Workload: it.Spec,
		Select: &wire.SelectConfig{
			C:       it.Select.C,
			Pdef:    it.Select.Pdef,
			Span:    it.Select.MaxSpan,
			Epsilon: it.Select.Epsilon,
			Alpha:   it.Select.Alpha,
		},
	}
}

// Do implements Target.
func (t *RemoteTarget) Do(ctx context.Context, it Item) Reply {
	resp, err := t.c.Compile(ctx, compileRequest(it))
	if err != nil {
		// Only 429 is backpressure; everything else — including 503 from a
		// draining daemon — is a hard failure, matching the CI gate's
		// "any non-2xx/non-429 response fails" contract.
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
			return Reply{Rejected: true}
		}
		return Reply{Err: err}
	}
	return Reply{CacheHit: resp.CacheHit}
}
