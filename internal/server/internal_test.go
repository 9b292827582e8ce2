package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpsched/internal/wire"
)

// TestAdmissionControl fills a queue nothing drains (no workers) and
// checks the overflow submit is refused with 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	s := newServer(Options{QueueDepth: 2}, false)
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"3dft"}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := submit(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	over := submit()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if s.metrics.jobsRejected.Value() != 1 {
		t.Errorf("jobsRejected = %d, want 1", s.metrics.jobsRejected.Value())
	}
}

// TestJobStoreEviction checks terminal jobs are evicted once the cap is
// exceeded while live jobs survive.
func TestJobStoreEviction(t *testing.T) {
	st := newJobStore(2)
	mk := func(id, status string) *asyncJob {
		return &asyncJob{id: id, status: status}
	}
	st.add(mk("a", wire.JobDone))
	st.add(mk("b", wire.JobQueued))
	st.add(mk("c", wire.JobDone))
	if _, ok := st.get("a"); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := st.get("b"); !ok {
		t.Error("live job evicted")
	}
	if _, ok := st.get("c"); !ok {
		t.Error("newest job evicted")
	}
}
