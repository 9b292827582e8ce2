package fleet

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite the /metrics exposition golden file")

const metricsGolden = "testdata/metrics.golden"

// TestRouterMetricsGolden pins mpschedrouter's whole /metrics exposition
// after a fixed request sequence over two in-process backends: a compile
// miss then a hit, one binary batch, one async job and one 400. Backend
// URLs become backend0, backend1; time-dependent values are masked. On
// an intentional change to the families, regenerate with:
//
//	go test -run RouterMetricsGolden -update-metrics ./internal/fleet
func TestRouterMetricsGolden(t *testing.T) {
	// Probes only at startup: a probe racing the scrape must not move
	// backend state under the golden.
	f := newTestFleet(t, 2, func(o *Options) { o.ProbeInterval = time.Hour })
	ctx := context.Background()
	c := client.New(f.rts.URL)

	for i := 0; i < 2; i++ {
		if _, err := c.Compile(ctx, wire.CompileRequest{Workload: "3dft"}); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	if _, err := c.WithCodec(wire.Binary).CompileBatch(ctx, []wire.CompileRequest{
		{Workload: "3dft"}, {Workload: "fft:8"},
	}); err != nil {
		t.Fatal(err)
	}

	// The job is awaited on its backend directly, so the router's
	// GET /v1/jobs/{id} count stays fixed at one.
	job, err := c.SubmitJob(ctx, wire.CompileRequest{Workload: "ndft:4"})
	if err != nil {
		t.Fatal(err)
	}
	prefix, local, _ := strings.Cut(job.ID, "-")
	idx, err := strconv.Atoi(prefix)
	if err != nil {
		t.Fatalf("job id %q: %v", job.ID, err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := client.New(f.backends[idx].URL).WaitJob(wctx, local, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Job(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(f.rts.URL+"/v1/compile", wire.ContentTypeJSON, strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed compile: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(f.rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := string(body)
	for i, b := range f.backends {
		got = strings.ReplaceAll(got, b.URL, "backend"+strconv.Itoa(i))
	}
	got = maskTimes(got)

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
// quantile samples and _sum series — with "X".
func maskTimes(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if l == "" || l[0] == '#' {
			continue
		}
		name := l[:strings.IndexAny(l, "{ ")]
		if strings.HasSuffix(name, "_uptime_seconds") || strings.HasSuffix(name, "_sum") ||
			strings.Contains(l, `quantile="`) {
			lines[i] = l[:strings.LastIndexByte(l, ' ')+1] + "X"
		}
	}
	return strings.Join(lines, "\n")
}
