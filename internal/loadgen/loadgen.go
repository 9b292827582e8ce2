// Package loadgen is the load-generation harness: it drives a compile
// target — an in-process pipeline.Compiler or a remote mpschedd — with a
// reproducible storm of scenario-corpus workloads and records the
// latency/throughput/error profile the CI perf gates and the repo's
// BENCH_*.json trajectory are built on.
//
// Two generator shapes are supported. Closed-loop runs N clients
// back-to-back: offered load adapts to the target's speed, measuring
// capacity. Open-loop fires requests on a fixed arrival schedule (uniform
// or Poisson at a target RPS) regardless of how the target keeps up:
// latency is measured from each request's *scheduled* arrival, so queueing
// delay under overload is charged to the target rather than silently
// dropped (the coordinated-omission trap).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpsched/internal/obs"
)

// Mode selects the generator shape.
type Mode int

const (
	// Closed runs Clients workers back-to-back (capacity measurement).
	Closed Mode = iota
	// Open fires on a fixed arrival schedule at RPS (latency measurement).
	Open
)

func (m Mode) String() string {
	if m == Open {
		return "open"
	}
	return "closed"
}

// ParseMode maps the CLI names to modes.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "closed":
		return Closed, nil
	case "open":
		return Open, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want closed or open)", s)
}

// Arrival selects the open-loop inter-arrival distribution.
type Arrival int

const (
	// Poisson draws exponential inter-arrival gaps (memoryless traffic,
	// the standard open-workload model).
	Poisson Arrival = iota
	// Uniform spaces arrivals exactly 1/RPS apart.
	Uniform
)

func (a Arrival) String() string {
	if a == Uniform {
		return "uniform"
	}
	return "poisson"
}

// ParseArrival maps the CLI names to arrival processes.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "uniform":
		return Uniform, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q (want poisson or uniform)", s)
}

// Config parameterises one load run.
type Config struct {
	// Scenario labels the run in the Result (typically the scenario spec).
	Scenario string
	// Mode is the generator shape (default Closed).
	Mode Mode
	// Clients is the closed-loop worker count, and the open-loop in-flight
	// cap. Default 1.
	Clients int
	// RPS is the open-loop target arrival rate (required in Open mode).
	RPS float64
	// Arrival is the open-loop inter-arrival distribution.
	Arrival Arrival
	// Duration is how long new requests are issued (required). In-flight
	// requests run to completion past the deadline and are still recorded.
	Duration time.Duration
	// Seed drives the Poisson arrival draws (default 1). The item replay
	// order is round-robin and needs no seed.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Duration <= 0 {
		return c, errors.New("loadgen: duration must be positive")
	}
	if c.Mode == Open && c.RPS <= 0 {
		return c, errors.New("loadgen: open-loop mode needs a positive RPS")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// maxErrorSamples bounds how many distinct failure strings a Result keeps.
const maxErrorSamples = 5

// Result is the outcome of one load run.
type Result struct {
	// Scenario, Target and Mode identify the run.
	Scenario string
	Target   string
	Mode     string
	// Clients and RPS echo the generator configuration.
	Clients int
	RPS     float64
	// Elapsed is the wall-clock span from first issue to last completion.
	Elapsed time.Duration
	// Requests counts every issued request; Success the completed
	// compiles; Errors the hard failures; Rejected the 429 backpressure
	// responses; CacheHits the successes served from cache.
	Requests, Success, Errors, Rejected, CacheHits int64
	// Throughput is Success per second of Elapsed.
	Throughput float64
	// Hist is the latency histogram over successful and rejected requests
	// (a fast 429 is a real response; errors are excluded so a storm of
	// instant failures cannot fake a good p99).
	Hist *obs.Histogram
	// ErrorSamples holds up to five distinct failure strings for triage.
	ErrorSamples []string
}

// CacheHitRatio returns cache hits over successes, in [0, 1].
func (r *Result) CacheHitRatio() float64 {
	if r.Success == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Success)
}

// collector accumulates outcomes from concurrent workers.
type collector struct {
	mu      sync.Mutex
	hist    obs.Histogram
	success int64
	errs    int64
	reject  int64
	hits    int64
	samples []string
}

func (c *collector) record(latency time.Duration, rep Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case rep.Err != nil:
		c.errs++
		if len(c.samples) < maxErrorSamples {
			s := rep.Err.Error()
			for _, prev := range c.samples {
				if prev == s {
					return
				}
			}
			c.samples = append(c.samples, s)
		}
		return
	case rep.Rejected:
		c.reject++
	default:
		c.success++
		if rep.CacheHit {
			c.hits++
		}
	}
	c.hist.Record(latency)
}

// Run executes one load run of items against t. The context cancels the
// whole run early (its error is returned); the configured duration ends it
// normally. Items are replayed round-robin so every member of a mixed
// scenario is exercised evenly.
func Run(ctx context.Context, t Target, items []Item, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, errors.New("loadgen: no items to replay")
	}

	col := &collector{}
	start := time.Now()
	var issued int64
	switch cfg.Mode {
	case Open:
		issued = runOpen(ctx, t, items, cfg, col)
	default:
		issued = runClosed(ctx, t, items, cfg, col)
	}
	elapsed := time.Since(start)

	res := &Result{
		Scenario:     cfg.Scenario,
		Target:       t.Name(),
		Mode:         cfg.Mode.String(),
		Clients:      cfg.Clients,
		RPS:          cfg.RPS,
		Elapsed:      elapsed,
		Requests:     issued,
		Success:      col.success,
		Errors:       col.errs,
		Rejected:     col.reject,
		CacheHits:    col.hits,
		Hist:         &col.hist,
		ErrorSamples: col.samples,
	}
	if elapsed > 0 {
		res.Throughput = float64(col.success) / elapsed.Seconds()
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runClosed drives Clients workers back-to-back until the deadline. Each
// worker checks the deadline before issuing, then lets the request run to
// completion — no request is cancelled mid-compile, so the tail of the
// histogram is real latency, not shutdown noise.
func runClosed(ctx context.Context, t Target, items []Item, cfg Config, col *collector) int64 {
	deadline := time.Now().Add(cfg.Duration)
	var next atomic.Int64
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				it := items[int(next.Add(1)-1)%len(items)]
				issued.Add(1)
				t0 := time.Now()
				rep := t.Do(ctx, it)
				col.record(time.Since(t0), rep)
			}
		}()
	}
	wg.Wait()
	return issued.Load()
}

// arrival is one scheduled open-loop request awaiting a worker.
type arrival struct {
	scheduled time.Time
	item      Item
}

// errOverload is recorded for arrivals the pending queue could not hold:
// the target has fallen so far behind the schedule that the harness would
// otherwise hoard unbounded state. Counting them as hard failures keeps
// the outcome classes summing to Requests and makes -strict runs fail
// loudly instead of the generator OOMing mid-measurement.
var errOverload = errors.New("loadgen: pending-arrival queue full (target cannot keep up with the schedule)")

// runOpen fires requests on the configured arrival schedule until the
// deadline, with Clients workers executing them. Latency is measured from
// the scheduled arrival, so time spent queued behind a busy worker counts
// against the target (intended-arrival accounting). The pending queue is
// bounded: arrivals beyond it are recorded as errOverload rather than
// buffered without limit.
func runOpen(ctx context.Context, t Target, items []Item, cfg Config, col *collector) int64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	gap := func() time.Duration {
		if cfg.Arrival == Uniform {
			return time.Duration(float64(time.Second) / cfg.RPS)
		}
		return time.Duration(rng.ExpFloat64() / cfg.RPS * float64(time.Second))
	}

	// Enough backlog to ride out latency spikes (a full second at the
	// offered rate when that fits), small enough to bound harness memory —
	// the cap matters because depth is allocated up front and an absurd
	// -rps must not OOM the harness before the first request.
	depth := int(cfg.RPS)
	if min := 64 * cfg.Clients; depth < min {
		depth = min
	}
	if depth > 1<<20 {
		depth = 1 << 20
	}
	pending := make(chan arrival, depth)
	// stopping flips once the dispatch window closes: workers then skip
	// (rather than execute) whatever is still queued, so a run ends at
	// deadline + one in-flight request instead of deadline + backlog.
	// Skipped arrivals were never attempted and are subtracted from the
	// issued count below.
	var stopping atomic.Bool
	var skipped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range pending {
				if stopping.Load() {
					skipped.Add(1)
					continue
				}
				rep := t.Do(ctx, a.item)
				col.record(time.Since(a.scheduled), rep)
			}
		}()
	}

	deadline := time.Now().Add(cfg.Duration)
	timer := time.NewTimer(0)
	defer timer.Stop()
	var issued int64
	next := time.Now()
	for i := 0; next.Before(deadline) && ctx.Err() == nil; i++ {
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		a := arrival{scheduled: next, item: items[i%len(items)]}
		next = next.Add(gap())
		issued++
		select {
		case pending <- a:
		default:
			col.record(0, Reply{Err: errOverload})
		}
	}
	stopping.Store(true)
	close(pending)
	wg.Wait()
	return issued - skipped.Load()
}
