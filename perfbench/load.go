package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mpsched/internal/wire"
)

// maxConns is the benchmark's connection budget: one process, at most two
// client connections, one per core of the reference host.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// post sends one request and reads its whole response body.
func post(ctx context.Context, client *http.Client, base string, r *request) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", r.codec.ContentType())
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s response: %w", r.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// decodeResults decodes a response body into one result per job of r, in
// job order. A job without a result carries its error instead.
func decodeResults(r *request, body []byte) ([]*wire.CompileResponse, []error, error) {
	results := make([]*wire.CompileResponse, len(r.graphs))
	errs := make([]error, len(r.graphs))
	if r.path == "/v1/compile" {
		var resp wire.CompileResponse
		if err := r.codec.DecodeResponse(bytes.NewReader(body), &resp); err != nil {
			return nil, nil, fmt.Errorf("decode compile response: %w", err)
		}
		results[0] = &resp
		return results, errs, nil
	}
	rd := r.codec.NewItemReader(bytes.NewReader(body))
	for {
		var it wire.BatchItem
		err := rd.ReadItem(&it)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("decode batch item: %w", err)
		}
		switch {
		case it.Index < 0 || it.Index >= len(results) || results[it.Index] != nil || errs[it.Index] != nil:
			return nil, nil, fmt.Errorf("batch item index %d out of range or repeated", it.Index)
		case it.Status != http.StatusOK:
			errs[it.Index] = fmt.Errorf("batch job %d: status %d: %s", it.Index, it.Status, it.Error)
		default:
			results[it.Index] = it.Result
		}
	}
	for i := range results {
		if results[i] == nil && errs[i] == nil {
			errs[i] = fmt.Errorf("batch job %d: no item in the response", i)
		}
	}
	return results, errs, nil
}

// tally counts one client's outcomes.
type tally struct {
	latencies []float64 // ms, one per request
	jobs, ok  int
	cycles    int64
}

func (t *tally) add(o tally) {
	t.latencies = append(t.latencies, o.latencies...)
	t.jobs += o.jobs
	t.ok += o.ok
	t.cycles += o.cycles
}

// exchange sends r, checks every job's result, and returns the round
// trip time. Failed jobs are recorded with the checker.
func exchange(ctx context.Context, client *http.Client, base string, r *request, chk *checker, t *tally) time.Duration {
	start := time.Now()
	body, err := post(ctx, client, base, r)
	rtt := time.Since(start)
	t.jobs += len(r.graphs)
	var results []*wire.CompileResponse
	var errs []error
	if err == nil {
		results, errs, err = decodeResults(r, body)
	}
	if err != nil {
		for range r.graphs {
			chk.fail(err)
		}
		return rtt
	}
	for i, gr := range r.graphs {
		if errs[i] != nil {
			chk.fail(errs[i])
			continue
		}
		cycles, err := chk.check(gr, results[i])
		if err != nil {
			chk.fail(err)
			continue
		}
		t.ok++
		t.cycles += int64(cycles)
	}
	return rtt
}

// runClosedLoop runs one client per request list, each sending its next
// request only after the previous reply, and returns the combined tally
// and the wall time from the first send to the last reply.
func runClosedLoop(ctx context.Context, client *http.Client, base string, lists [][]*request, chk *checker) (tally, time.Duration) {
	tallies := make([]tally, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	for i, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			t.latencies = make([]float64, 0, len(list))
			for _, r := range list {
				rtt := exchange(ctx, client, base, r, chk, t)
				t.latencies = append(t.latencies, float64(rtt)/float64(time.Millisecond))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all tally
	for _, t := range tallies {
		all.add(t)
	}
	return all, wall
}

// warmUp compiles the warm set once on a fresh daemon, checking each
// result; the checker keeps these as the first answers.
func warmUp(ctx context.Context, client *http.Client, base string, in *inputs, chk *checker) error {
	var t tally
	for _, gr := range in.warm {
		exchange(ctx, client, base, compileRequest(gr, wire.Binary), chk, &t)
	}
	if t.ok != t.jobs {
		return fmt.Errorf("warm-up: %d of %d compiles failed: %v", t.jobs-t.ok, t.jobs, chk.err)
	}
	return nil
}
