// Command perfbench is the repository's benchmark. It starts mpschedd as
// its users do (default flags, its own process, a loopback port), sends it
// a fixed, seeded list of compile requests from at most two closed-loop
// clients, checks every answer independently, and prints one JSON line of
// metrics. See README.md in this directory for the workloads, the
// metrics and how they relate.
//
//	perfbench --workload cold-compile --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead replays the workload's requests with a span
// around each layer's public function and prints the per-layer metrics.
// run.sh builds the daemon and this driver from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix. Its size unit is the work the reference
// host (2 vCPUs) does in about one second; a run of --seconds S sends S
// units, so the same arguments always send the same requests.
type workload struct {
	name string
	// setups is how many times a timed run sets up a fresh daemon; setup_s
	// is the median. A set-up without warm-up takes milliseconds, so
	// cold-compile repeats it more often.
	setups int
	// traceUnits caps how many size units the traced run replays; the
	// replay repeats each request's work in process and would otherwise
	// run far longer than the timed run.
	traceUnits int
}

var allWorkloads = []*workload{
	{name: "cold-compile", setups: 15, traceUnits: 5},
	{name: "warm-serve", setups: 5, traceUnits: 1},
	{name: "mixed-serve", setups: 5, traceUnits: 4},
}

// Size units: warm-serve sends warmJSONRounds passes over the warm set
// from its JSON client and warmBinaryRounds from its binary client per
// unit; mixed-serve sends mixedEnvelopes envelopes per client per unit.
// cold-compile's unit is one round of 49 graphs.
const (
	warmJSONRounds   = 22
	warmBinaryRounds = 40
	mixedEnvelopes   = 230
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload: cold-compile, warm-serve or mixed-serve")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", 10, "run length in reference-host seconds of work")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		daemonBn = flag.String("daemon", ".bench_build/bin/mpschedd", "mpschedd binary")
		out      = flag.String("out", ".bench_build", "directory for trace dumps")
	)
	flag.Parse()
	var w *workload
	for _, c := range allWorkloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload cold-compile|warm-serve|mixed-serve, --seconds ≥ 1, --trace 0|1")
		return 2
	}
	if _, err := os.Stat(*daemonBn); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	size := *seconds
	if *trace == 1 {
		size = min(size, w.traceUnits)
	}
	in, err := makeInputs(w, *seed, size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: generate inputs: %v\n", err)
		return 1
	}
	var res *result
	if *trace == 1 {
		res, err = traced(ctx, *daemonBn, w, in, *seed, *out)
	} else {
		res, err = timed(ctx, *daemonBn, w, in)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timed is the measured run: set up a fresh daemon several times (the
// last one stays up), then run every client's request list in a closed
// loop against it.
func timed(ctx context.Context, daemonBin string, w *workload, in *inputs) (*result, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	chk := newChecker()
	var d *daemon
	setupTimes := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, daemonBin, client); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, client, d.base, in, chk); err != nil {
			d.kill()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	t, wall := runClosedLoop(ctx, client, d.base, in.clients, chk)
	rss, rssErr := d.peakRSSMB()
	if err := errors.Join(rssErr, d.stop()); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if chk.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed jobs; first: %v\n", chk.fails, chk.err)
	}
	return &result{
		Correct:   chk.fails == 0,
		Attempted: t.jobs,
		Failed:    t.jobs - t.ok,
		Metrics: map[string]metric{
			"throughput_rps": {float64(t.ok) / wall.Seconds(), "compiles/s"},
			"latency_ms.p50": {quantile(t.latencies, 0.50), "ms"},
			"latency_ms.p90": {quantile(t.latencies, 0.90), "ms"},
			"success_ratio":  {float64(t.ok) / float64(t.jobs), "ratio"},
			"cycles_total":   {float64(t.cycles), "cycles"},
			"peak_rss_mb":    {rss, "MB"},
			"setup_s":        {median(setupTimes), "s"},
		},
	}, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
