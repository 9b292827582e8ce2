package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpsched/internal/server"
	"mpsched/internal/wire"
)

// postJSON drives the server the way curl does — raw HTTP, no typed
// client — so these tests pin the wire format itself.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

func newWireServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts
}

func TestCompileStopAfterSelectWire(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/compile", `{"workload":"3dft","stop_after":"select"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["stop_after"] != "select" {
		t.Errorf("stop_after = %v, want select", out["stop_after"])
	}
	if _, ok := out["cycles"]; ok {
		t.Errorf("select-only response carries cycles: %v", out)
	}
	if ps, ok := out["patterns"].([]any); !ok || len(ps) == 0 {
		t.Errorf("select-only response missing patterns: %v", out)
	}
	census, ok := out["census"].(map[string]any)
	if !ok || census["antichains"].(float64) <= 0 {
		t.Errorf("select-only response missing census: %v", out)
	}
	stages, ok := out["stages"].([]any)
	if !ok || len(stages) != 2 {
		t.Fatalf("stages = %v, want census+select", out["stages"])
	}
	for i, want := range []string{"census", "select"} {
		st := stages[i].(map[string]any)
		if st["stage"] != want {
			t.Errorf("stage[%d] = %v, want %s", i, st["stage"], want)
		}
		if _, ok := st["ms"]; !ok {
			t.Errorf("stage[%d] has no ms field: %v", i, st)
		}
	}
}

func TestCompileStopAfterCensusWire(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/compile", `{"workload":"fig4","select":{"c":2,"pdef":2,"span":-1},"stop_after":"census"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if _, ok := out["patterns"]; ok {
		t.Errorf("census-only response carries patterns: %v", out)
	}
	if census, ok := out["census"].(map[string]any); !ok || census["classes"].(float64) <= 0 {
		t.Errorf("census-only response missing census: %v", out)
	}
}

func TestCompileFullStillCarriesTimings(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/compile", `{"workload":"3dft"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if _, ok := out["stop_after"]; ok {
		t.Errorf("full compile should not echo stop_after: %v", out["stop_after"])
	}
	if c, _ := out["cycles"].(float64); c <= 0 {
		t.Errorf("cycles = %v", out["cycles"])
	}
	stages, ok := out["stages"].([]any)
	if !ok || len(stages) != 3 {
		t.Fatalf("stages = %v, want census+select+schedule", out["stages"])
	}
	if out["span"].(float64) != 1 {
		t.Errorf("span = %v, want the default 1", out["span"])
	}
}

func TestJobsStopAfterWire(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/jobs", `{"workload":"3dft","stop_after":"select"}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", status, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", out)
	}

	deadline := time.Now().Add(10 * time.Second)
	var job map[string]any
	for {
		var st int
		st, job = getJSON(t, ts, "/v1/jobs/"+id)
		if st != http.StatusOK {
			t.Fatalf("poll status %d: %v", st, job)
		}
		if s := job["status"]; s == wire.JobDone || s == wire.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", id, job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job["status"] != wire.JobDone {
		t.Fatalf("job failed: %v", job)
	}
	result, ok := job["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result: %v", job)
	}
	if result["stop_after"] != "select" {
		t.Errorf("job result stop_after = %v, want select", result["stop_after"])
	}
	if _, ok := result["cycles"]; ok {
		t.Errorf("select-only job result carries cycles: %v", result)
	}
	if ps, ok := result["patterns"].([]any); !ok || len(ps) == 0 {
		t.Errorf("select-only job result missing patterns: %v", result)
	}
}

func TestCompileSpansSweepWire(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/compile", `{"workload":"ndft:4","spans":[0,1,2]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if out["swept_spans"] != true {
		t.Errorf("swept_spans = %v, want true", out["swept_spans"])
	}
	if _, ok := out["span"].(float64); !ok {
		t.Errorf("no winning span: %v", out["span"])
	}
	if c, _ := out["cycles"].(float64); c <= 0 {
		t.Errorf("cycles = %v", out["cycles"])
	}
}

func TestCompileStopAfterValidation(t *testing.T) {
	ts := newWireServer(t)
	status, out := postJSON(t, ts, "/v1/compile", `{"workload":"3dft","stop_after":"link"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %v", status, out)
	}
	msg, _ := out["error"].(string)
	if !bytes.Contains([]byte(msg), []byte("stop_after")) {
		t.Errorf("error does not name the field: %q", msg)
	}

	status, out = postJSON(t, ts, "/v1/jobs", `{"workload":"3dft","spans":[0,1],"stop_after":"select"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %v", status, out)
	}
	if msg, _ := out["error"].(string); !bytes.Contains([]byte(msg), []byte("spans")) {
		t.Errorf("error does not name the field: %q", msg)
	}
}
