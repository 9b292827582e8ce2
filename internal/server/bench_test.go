package server_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

// BenchmarkServerThroughput measures end-to-end jobs/sec through the HTTP
// layer (in-process httptest transport) over a mixed DFT/FIR/MatMul fleet
// — the serving-side counterpart of the pipeline batch benchmarks.
// "cold" disables the result cache so every request pays the full
// select→schedule cost; "warm" serves the steady state where the fleet's
// workloads repeat and the sharded cache answers them.
func BenchmarkServerThroughput(b *testing.B) {
	fleet := []string{"3dft", "ndft:4", "ndft:5", "fir:8,4", "fir:12,2", "matmul:3", "butterfly:3", "fft:8"}

	run := func(b *testing.B, opts server.Options) {
		s := server.New(opts)
		ts := httptest.NewServer(s)
		defer ts.Close()
		c := client.New(ts.URL)
		ctx := context.Background()

		// One pass outside the clock: fills the cache in warm mode and
		// fails fast if any spec is broken.
		for _, spec := range fleet {
			if _, err := c.Compile(ctx, wire.CompileRequest{Workload: spec}); err != nil {
				b.Fatalf("%s: %v", spec, err)
			}
		}

		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				spec := fleet[i%len(fleet)]
				if _, err := c.Compile(ctx, wire.CompileRequest{Workload: spec}); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	}

	b.Run("cold", func(b *testing.B) { run(b, server.Options{CacheEntries: -1}) })
	b.Run("warm", func(b *testing.B) { run(b, server.Options{}) })
}
