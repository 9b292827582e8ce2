package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpsched/internal/server"
	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-backends") {
		t.Fatalf("usage text missing flags:\n%s", errOut.String())
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestMissingBackendsExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut, nil); code != 2 {
		t.Fatalf("no -backends exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-backends") {
		t.Fatalf("error does not point at the flag:\n%s", errOut.String())
	}
}

func TestBadCodecExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-backends", "localhost:1", "-forward-codec", "carrier-pigeon"}, &out, &errOut, nil)
	if code != 2 {
		t.Fatalf("bad codec exited %d, want 2", code)
	}
}

func TestBadAddrExitsOne(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-backends", "localhost:1", "-addr", "256.256.256.256:1"}, &out, &errOut, nil)
	if code != 1 {
		t.Fatalf("bad addr exited %d, want 1\nstderr: %s", code, errOut.String())
	}
}

// TestServeCompileAndGracefulShutdown boots the real router in front of
// one real backend, compiles through it, then delivers SIGTERM and
// expects a clean drain and exit 0.
func TestServeCompileAndGracefulShutdown(t *testing.T) {
	backend := httptest.NewServer(server.New(server.Options{}))
	defer backend.Close()

	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	code := -1
	go func() {
		defer wg.Done()
		// Bare host:port exercises the http:// auto-prefix path.
		code = run([]string{"-addr", "127.0.0.1:0",
			"-backends", strings.TrimPrefix(backend.URL, "http://")}, &out, &errOut, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("router never came up")
	}
	if !strings.Contains(out.String(), "1 backends") {
		t.Fatalf("startup line missing backend count:\n%s", out.String())
	}

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h, err := c.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
	resp, err := c.Compile(ctx, wire.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatalf("compile through router: %v", err)
	}
	if resp.Cycles <= 0 {
		t.Fatalf("degenerate compile: %+v", resp)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if v, ok := m.Value("mpschedrouter_backends_up"); !ok || v != 1 {
		t.Fatalf("mpschedrouter_backends_up = %v,%v, want 1", v, ok)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if code != 0 {
		t.Fatalf("router exited %d after SIGTERM\nstderr: %s", code, errOut.String())
	}
}
