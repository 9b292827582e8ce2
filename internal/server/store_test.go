package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/pipeline"
	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// TestWarmRestartServesFromDisk is the serving-layer warm-restart story:
// a server backed by a persistent tiered store is stopped and a new one
// opened over the same directory serves the same compile as a cache hit,
// with identical results.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	open := func() (pipeline.ResultCache, *server.Server, *httptest.Server) {
		cache, err := pipeline.NewTieredCache(0, 0, dir, 0, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Options{Cache: cache})
		return cache, s, httptest.NewServer(s)
	}
	shutdown := func(cache pipeline.ResultCache, s *server.Server, ts *httptest.Server) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		if err := cache.Close(); err != nil {
			t.Fatalf("close store: %v", err)
		}
	}

	cache1, s1, ts1 := open()
	c1 := client.New(ts1.URL)
	cold, err := c1.Compile(context.Background(), wire.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("cold compile reported a cache hit")
	}
	shutdown(cache1, s1, ts1)

	cache2, s2, ts2 := open()
	defer shutdown(cache2, s2, ts2)
	c2 := client.New(ts2.URL)
	warm, err := c2.Compile(context.Background(), wire.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("compile after restart missed the persisted store")
	}
	if warm.Cycles != cold.Cycles || warm.Utilization != cold.Utilization {
		t.Fatalf("warm result differs: cycles %d vs %d", warm.Cycles, cold.Cycles)
	}

	// The tiered store exposes per-tier families on /metrics.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`mpschedd_store_hits_total{tier="memory"}`,
		`mpschedd_store_hits_total{tier="disk"}`,
		`mpschedd_store_entries{tier="disk"}`,
		`mpschedd_store_bytes{tier="disk"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// recolored returns g with node id's color replaced by another color
// already present in the graph — a minimal delta-compile mutation.
func recolored(t *testing.T, g *dfg.Graph, id int) *dfg.Graph {
	t.Helper()
	out := dfg.NewGraph(g.Name + "-mut")
	for i := 0; i < g.N(); i++ {
		node := g.Node(i)
		if i == id {
			for _, c := range g.Colors() {
				if c != node.Color {
					node.Color = c
					break
				}
			}
		}
		out.MustAddNode(node)
	}
	for i := 0; i < g.N(); i++ {
		for _, s := range g.Succs(i) {
			out.MustAddDep(i, s)
		}
	}
	if out.Fingerprint() == g.Fingerprint() {
		t.Fatal("mutation did not change the fingerprint")
	}
	return out
}

// TestDeltaCompileOverWire drives the delta path end to end: compile a
// base graph, then send a small mutation naming the base's fingerprint,
// and get back a response flagged delta.
func TestDeltaCompileOverWire(t *testing.T) {
	_, c := newTestServer(t, server.Options{})
	base, err := cliutil.Generate("3dft")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), wire.CompileRequest{Graph: base}); err != nil {
		t.Fatal(err)
	}

	mut := recolored(t, base, 3)
	resp, err := c.Compile(context.Background(), wire.CompileRequest{
		Graph:           mut,
		BaseFingerprint: base.Fingerprint(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Delta {
		t.Fatal("mutated compile with base_fingerprint was not served via the delta path")
	}
	if resp.CacheHit {
		t.Fatal("first delta compile cannot be a cache hit")
	}
	if resp.Cycles <= 0 {
		t.Fatalf("degenerate delta result: %+v", resp)
	}

	// An unknown base silently compiles cold — the field is always safe.
	resp2, err := c.Compile(context.Background(), wire.CompileRequest{
		Graph:           recolored(t, base, 5),
		BaseFingerprint: "no-such-base",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Delta {
		t.Fatal("unknown base must not produce a delta response")
	}
}
