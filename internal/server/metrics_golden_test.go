package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"mpsched/internal/wire"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite the /metrics exposition golden file")

const metricsGolden = "testdata/metrics.golden"

// TestMetricsGolden pins mpschedd's whole /metrics exposition — every
// family name, HELP and TYPE line, label set and order — after a fixed
// request sequence: a compile miss then a hit, one binary batch, one
// async job and one 400. Time-dependent values are masked. On an
// intentional change to the families, regenerate with:
//
//	go test -run MetricsGolden -update-metrics ./internal/server
func TestMetricsGolden(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	for i := 0; i < 2; i++ {
		if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, resp.StatusCode)
		}
	}

	var batch bytes.Buffer
	if err := wire.Binary.EncodeBatch(&batch, &wire.BatchRequest{Jobs: []wire.CompileRequest{
		{Workload: "3dft"}, {Workload: "fft:8"},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", wire.ContentTypeBinary, &batch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}

	// The job is awaited in process, not by polling GET /v1/jobs/{id},
	// so the route's request count stays fixed at one.
	resp, err = http.Post(ts.URL+"/v1/jobs", wire.ContentTypeJSON, strings.NewReader(`{"workload":"ndft:4"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job wire.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.store.get(job.ID)
		if !ok {
			t.Fatalf("job %s not stored", job.ID)
		}
		if st := j.snapshot().Status; st == wire.JobDone {
			break
		} else if st == wire.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job %s ended %q", job.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if resp := post(t, ts.URL+"/v1/compile", `{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed compile: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := maskTimes(string(body))

	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", metricsGolden)
		return
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-metrics to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s\n--- got ---\n%s\n--- want ---\n%s", metricsGolden, got, want)
	}
}

// maskTimes replaces the value of every time-dependent sample — uptime,
// jobs per second, quantile samples and _sum series — with "X".
func maskTimes(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if l == "" || l[0] == '#' {
			continue
		}
		name := l[:strings.IndexAny(l, "{ ")]
		if strings.HasSuffix(name, "_uptime_seconds") || strings.HasSuffix(name, "_jobs_per_second") ||
			strings.HasSuffix(name, "_sum") || strings.Contains(l, `quantile="`) {
			lines[i] = l[:strings.LastIndexByte(l, ' ')+1] + "X"
		}
	}
	return strings.Join(lines, "\n")
}
