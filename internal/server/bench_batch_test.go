package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// BenchmarkBatchBinary64 measures the full /v1/batch handler path for a
// 64-job binary envelope against a hot cache — the storm shape the
// serving perf gate runs, minus the network and the client. It is the
// reference measurement for the tracing/metrics overhead budget on the
// batched path.
func BenchmarkBatchBinary64(b *testing.B) {
	s := server.New(server.Options{})
	defer s.Drain(context.Background())

	// 64 identical jobs mirror the CI storm shape (its scenario has one
	// member), and every job is a cache hit after the warm-up below.
	var env wire.BatchRequest
	for i := 0; i < 64; i++ {
		env.Jobs = append(env.Jobs, wire.CompileRequest{Workload: "fft:8"})
	}
	var buf bytes.Buffer
	if err := wire.Binary.EncodeBatch(&buf, &env); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()

	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(raw))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	// First envelope warms the result cache so iterations measure the
	// serving overhead, not the initial compiles.
	if code := do(); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}
