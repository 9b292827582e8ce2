package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// BatchTarget drives a live mpschedd over /v1/batch: concurrent Do calls
// coalesce into shared envelopes, so B compiles ride one HTTP round trip
// instead of B. Callers still see the one-call-one-Reply contract —
// batching is invisible to the generators, which is the point: the same
// closed/open-loop storm measures the batched wire without changing its
// own shape.
//
// Coalescing: dispatcher goroutines pull calls off a shared channel; the
// first call of an envelope waits at most batchLinger for companions, so
// a sparse load degenerates gracefully to singleton envelopes instead of
// stalling. Close releases the dispatchers (pending calls complete).
type BatchTarget struct {
	c     *client.Client
	batch int
	calls chan batchCall
	wg    sync.WaitGroup
	once  sync.Once
}

type batchCall struct {
	ctx   context.Context
	item  Item
	reply chan Reply
}

// batchLinger bounds how long an envelope's first call waits for
// companions: long enough that a storm fills envelopes, short enough to
// be invisible next to a compile.
const batchLinger = 200 * time.Microsecond

// NewBatchTarget builds a batching target: envelopes of up to batch
// jobs, assembled by `dispatchers` concurrent envelope builders (≤ 1 is
// clamped to 1; a good value is ~2× clients/batch so a slow envelope
// never idles the storm).
func NewBatchTarget(c *client.Client, batch, dispatchers int) *BatchTarget {
	if batch < 1 {
		batch = 1
	}
	if dispatchers < 1 {
		dispatchers = 1
	}
	t := &BatchTarget{c: c, batch: batch, calls: make(chan batchCall)}
	for i := 0; i < dispatchers; i++ {
		t.wg.Add(1)
		go t.dispatch()
	}
	return t
}

// Name implements Target.
func (t *BatchTarget) Name() string {
	return fmt.Sprintf("%s (%s, batch %d)", t.c.BaseURL(), t.c.Codec().Name(), t.batch)
}

// Do implements Target: enqueue the call and wait for its item's Reply.
func (t *BatchTarget) Do(ctx context.Context, it Item) Reply {
	reply := make(chan Reply, 1)
	select {
	case t.calls <- batchCall{ctx: ctx, item: it, reply: reply}:
	case <-ctx.Done():
		return Reply{Err: ctx.Err()}
	}
	select {
	case r := <-reply:
		return r
	case <-ctx.Done():
		return Reply{Err: ctx.Err()}
	}
}

// Close stops the dispatchers after in-flight envelopes finish. Do must
// not be called after Close.
func (t *BatchTarget) Close() {
	t.once.Do(func() {
		close(t.calls)
		t.wg.Wait()
	})
}

func (t *BatchTarget) dispatch() {
	defer t.wg.Done()
	for first := range t.calls {
		calls := append(make([]batchCall, 0, t.batch), first)
		if t.batch > 1 {
			var timer *time.Timer
		gather:
			for len(calls) < t.batch {
				// Fast path: under load the next call is already queued, and
				// a nonblocking receive is much cheaper than a two-case
				// select. The linger timer is armed lazily, only when the
				// queue actually runs dry.
				select {
				case c, ok := <-t.calls:
					if !ok {
						break gather
					}
					calls = append(calls, c)
					continue
				default:
				}
				if timer == nil {
					timer = time.NewTimer(batchLinger)
				}
				select {
				case c, ok := <-t.calls:
					if !ok {
						break gather
					}
					calls = append(calls, c)
				case <-timer.C:
					break gather
				}
			}
			if timer != nil {
				timer.Stop()
			}
		}
		t.flush(calls)
	}
}

func (t *BatchTarget) flush(calls []batchCall) {
	reqs := make([]wire.CompileRequest, len(calls))
	for i := range calls {
		reqs[i] = compileRequest(calls[i].item)
	}
	// Calls in one storm share the generator's context, so the first
	// call's context stands for the envelope.
	items, err := t.c.CompileBatch(calls[0].ctx, reqs)
	if err != nil {
		for i := range calls {
			calls[i].reply <- Reply{Err: err}
		}
		return
	}
	// CompileBatch guarantees exactly one item per request index.
	for _, it := range items {
		calls[it.Index].reply <- classifyItem(it)
	}
}

// classifyItem maps a batch item's per-job status onto the Reply
// states, mirroring RemoteTarget.Do's classification of HTTP statuses.
func classifyItem(it wire.BatchItem) Reply {
	switch it.Status {
	case http.StatusOK:
		return Reply{CacheHit: it.Result != nil && it.Result.CacheHit}
	case http.StatusTooManyRequests:
		return Reply{Rejected: true}
	default:
		return Reply{Err: fmt.Errorf("loadgen: batch item status %d: %s", it.Status, it.Error)}
	}
}
