package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// post fires one request at the test server and returns the response
// with its body drained, so brownout tests can assert status and
// headers tersely.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestShedBrownout drives the brownout controller through its levels by
// feeding the shedder synthetic queue waits: past the threshold async
// submissions shed, past twice the threshold sync work sheds too, and
// health checks never shed. Every shed response carries Retry-After.
func TestShedBrownout(t *testing.T) {
	// A short window keeps the cached shed level's re-eval interval at
	// its 25ms floor, so the test advances levels with tiny sleeps.
	s := newServer(Options{ShedThreshold: 50 * time.Millisecond, ShedWindow: 400 * time.Millisecond}, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy compile: status %d, want 200", resp.StatusCode)
	}

	// Queue-wait p99 past the threshold: async sheds, sync still serves.
	for i := 0; i < 100; i++ {
		s.shed.Observe(80 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	resp := post(t, ts.URL+"/v1/jobs", `{"workload":"3dft"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("async submit at shed level async: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 429 missing Retry-After")
	}
	if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("sync compile at shed level async: status %d, want 200", resp.StatusCode)
	}

	// Deep brownout: p99 past 2× the threshold sheds sync work too.
	for i := 0; i < 400; i++ {
		s.shed.Observe(200 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sync compile in deep brownout: status %d, want 429", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/batch", `{"jobs":[{"workload":"3dft"}]}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("batch in deep brownout: status %d, want 429", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz in deep brownout: status %d — health checks must never shed", hz.StatusCode)
	}
	if s.metrics.shedAsync.Value() < 1 || s.metrics.shedSync.Value() < 1 {
		t.Errorf("shed metrics async=%d sync=%d, want both ≥ 1",
			s.metrics.shedAsync.Value(), s.metrics.shedSync.Value())
	}

	// Congestion ages out: two idle windows later everything serves again.
	time.Sleep(900 * time.Millisecond)
	if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("compile after brownout aged out: status %d, want 200", resp.StatusCode)
	}
}

// TestDrainingRejectionsCarryRetryAfter: every backpressure response —
// not just queue-full 429s — tells the client when to come back.
func TestDrainingRejectionsCarryRetryAfter(t *testing.T) {
	s := newServer(Options{}, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"workload":"3dft"}`},
		{"/v1/batch", `{"jobs":[{"workload":"3dft"}]}`},
	} {
		resp := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: status %d, want 503", tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s draining 503 missing Retry-After", tc.path)
		}
	}
}

// TestShedDisabled: a negative threshold turns the controller off
// entirely — the nil shedder never sheds, whatever it would have seen.
func TestShedDisabled(t *testing.T) {
	s := newServer(Options{ShedThreshold: -1}, false)
	if s.shed != nil {
		t.Fatal("negative ShedThreshold must disable the shedder")
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp := post(t, ts.URL+"/v1/compile", `{"workload":"3dft"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile with shedding disabled: status %d, want 200", resp.StatusCode)
	}
}
