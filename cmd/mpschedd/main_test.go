package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mpsched/internal/server/client"
	"mpsched/internal/wire"
)

func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut, nil); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-addr") {
		t.Fatalf("usage text missing flags:\n%s", errOut.String())
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestBadAddrExitsOne(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:1"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("bad addr exited %d, want 1\nstderr: %s", code, errOut.String())
	}
}

// TestServeCompileAndGracefulShutdown boots the real daemon on a random
// port, compiles through it, then delivers SIGTERM and expects a clean
// drain and exit 0.
func TestServeCompileAndGracefulShutdown(t *testing.T) {
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	code := -1
	go func() {
		defer wg.Done()
		code = run([]string{"-addr", "127.0.0.1:0"}, &out, &errOut, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp, err := c.Compile(ctx, wire.CompileRequest{Workload: "3dft"})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if resp.Cycles <= 0 {
		t.Fatalf("degenerate compile: %+v", resp)
	}
	job, err := c.SubmitJob(ctx, wire.CompileRequest{Workload: "ndft:4"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.WaitJob(ctx, job.ID, 0)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.Status != wire.JobDone {
		t.Fatalf("job ended %q (%s)", final.Status, final.Error)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if code != 0 {
		t.Fatalf("daemon exited %d after SIGTERM\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "drained") {
		t.Fatalf("no drain log:\n%s", errOut.String())
	}
}

// TestPprofFlag boots the daemon with -pprof and checks the debug
// endpoints respond; the server-level tests pin that they 404 without it.
func TestPprofFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	code := -1
	go func() {
		defer wg.Done()
		code = run([]string{"-addr", "127.0.0.1:0", "-pprof"}, &out, &errOut, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("-pprof daemon: GET /debug/pprof/heap = %d, want 200", resp.StatusCode)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if code != 0 {
		t.Fatalf("daemon exited %d after SIGTERM\nstderr: %s", code, errOut.String())
	}
}

// startDaemon boots the daemon body on a random port and returns its
// address plus a wait func that delivers SIGTERM and returns the exit
// code.
func startDaemon(t *testing.T, args ...string) (addr string, errOut *bytes.Buffer, shutdown func() int) {
	t.Helper()
	var out bytes.Buffer
	errOut = &bytes.Buffer{}
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	code := -1
	go func() {
		defer wg.Done()
		code = run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, errOut, ready)
	}()
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	return addr, errOut, func() int {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return code
	}
}

// TestDrainWithInFlightBatchStream delivers SIGTERM while a /v1/batch
// response is still streaming: graceful shutdown must let the open
// stream finish — every item arrives, every status is 200 — and the
// daemon still exits 0. Covers both codecs, whose item framing differs.
func TestDrainWithInFlightBatchStream(t *testing.T) {
	for _, codec := range []wire.Codec{wire.JSON, wire.Binary} {
		t.Run(codec.Name(), func(t *testing.T) {
			// Cache off so every job really compiles and the stream stays
			// open long enough for the signal to land mid-flight.
			addr, errOut, shutdown := startDaemon(t, "-cache-entries", "-1")

			jobs := make([]wire.CompileRequest, 12)
			for i := range jobs {
				jobs[i] = wire.CompileRequest{Workload: fmt.Sprintf("random:seed=%d,n=40,colors=2", i+1)}
			}
			var body bytes.Buffer
			if err := codec.EncodeBatch(&body, &wire.BatchRequest{Jobs: jobs}); err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/batch", &body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", codec.ContentType())
			req.Header.Set("Accept", codec.ContentType())
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d, want 200", resp.StatusCode)
			}

			// One item in hand proves the stream is live; then pull the rug.
			ir := codec.NewItemReader(resp.Body)
			var first wire.BatchItem
			if err := ir.ReadItem(&first); err != nil {
				t.Fatalf("first item: %v", err)
			}
			got := []wire.BatchItem{first}
			code := shutdown()

			for {
				var it wire.BatchItem
				err := ir.ReadItem(&it)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("stream died after SIGTERM with %d of %d items: %v", len(got), len(jobs), err)
				}
				got = append(got, it)
			}
			if len(got) != len(jobs) {
				t.Fatalf("got %d items, want %d — shutdown truncated the stream", len(got), len(jobs))
			}
			for _, it := range got {
				if it.Status != http.StatusOK {
					t.Errorf("item %d: status %d (%s), want 200", it.Index, it.Status, it.Error)
				}
			}
			if code != 0 {
				t.Fatalf("daemon exited %d after SIGTERM\nstderr: %s", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), "drained") {
				t.Fatalf("no drain log:\n%s", errOut.String())
			}
		})
	}
}

// TestChaosFlag boots the daemon in chaos mode with a 100% error rate
// and checks faults land on /v1 routes only, with the mode loudly
// announced on stderr.
func TestChaosFlag(t *testing.T) {
	addr, errOut, shutdown := startDaemon(t, "-chaos", "err=100%,seed=1")

	c := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz must dodge chaos: %v", err)
	}
	_, err := c.Compile(ctx, wire.CompileRequest{Workload: "3dft"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("compile under err=100%%: %v, want APIError 500", err)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("daemon exited %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "CHAOS MODE") {
		t.Fatalf("chaos mode not announced:\n%s", errOut.String())
	}
}

func TestChaosFlagBadSpecExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-chaos", "err=200%"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad chaos spec exited %d, want 2\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-chaos") {
		t.Fatalf("error does not point at the flag:\n%s", errOut.String())
	}
}
