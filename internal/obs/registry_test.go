package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("x_requests_total", "Requests by route.", "route")
	c := r.Counter("x_plain_total", "Plain counter.")
	ok := r.Counter("x_shed_total", "Shed by class.", "class", "zeta")
	r.Counter("x_shed_total", "Shed by class.", "class", "alpha")
	g := r.Gauge("x_inflight", "In flight.")
	r.GaugeFunc("x_ratio", "A fraction.", func() float64 { return 0.25 })
	r.CounterFunc("x_big_total", "Large whole number.", func() float64 { return 12345678 })
	r.Sampled("x_tier_entries", "Never emitted.", GaugeKind, []string{"tier"}, func(func(float64, ...string)) {})
	r.Sampled("x_backend_up", "By backend.", GaugeKind, []string{"backend"}, func(emit func(float64, ...string)) {
		emit(1, `http://a"b`)
	})
	lat := r.SummaryVec("x_seconds", "Latency by route and codec.", "route", "codec")
	r.Summary("x_idle_seconds", "Never observed.")
	wait := r.Summary("x_wait_seconds", "Unlabelled.")

	// Resolved but never incremented or observed: left out.
	reqs.With("GET /idle")
	lat.With("GET /idle", "json")

	reqs.With("POST /b").Add(2)
	reqs.With("GET /a").Inc()
	c.Inc()
	ok.Add(3)
	g.Add(2)
	g.Add(-1)
	lat.With("POST /b", "json").Record(2 * time.Second)
	lat.With("GET /a", "json").Record(time.Second)
	lat.With("GET /a", "binary").Record(time.Second)
	wait.Record(1500 * time.Millisecond)

	want := `# HELP x_requests_total Requests by route.
# TYPE x_requests_total counter
x_requests_total{route="GET /a"} 1
x_requests_total{route="POST /b"} 2
# HELP x_plain_total Plain counter.
# TYPE x_plain_total counter
x_plain_total 1
# HELP x_shed_total Shed by class.
# TYPE x_shed_total counter
x_shed_total{class="zeta"} 3
x_shed_total{class="alpha"} 0
# HELP x_inflight In flight.
# TYPE x_inflight gauge
x_inflight 1
# HELP x_ratio A fraction.
# TYPE x_ratio gauge
x_ratio 0.25
# HELP x_big_total Large whole number.
# TYPE x_big_total counter
x_big_total 12345678
# HELP x_backend_up By backend.
# TYPE x_backend_up gauge
x_backend_up{backend="http://a\"b"} 1
# HELP x_seconds Latency by route and codec.
# TYPE x_seconds summary
x_seconds{route="GET /a",codec="binary",quantile="0.5"} 1
x_seconds{route="GET /a",codec="binary",quantile="0.99"} 1
x_seconds_sum{route="GET /a",codec="binary"} 1
x_seconds_count{route="GET /a",codec="binary"} 1
x_seconds{route="GET /a",codec="json",quantile="0.5"} 1
x_seconds{route="GET /a",codec="json",quantile="0.99"} 1
x_seconds_sum{route="GET /a",codec="json"} 1
x_seconds_count{route="GET /a",codec="json"} 1
x_seconds{route="POST /b",codec="json",quantile="0.5"} 2
x_seconds{route="POST /b",codec="json",quantile="0.99"} 2
x_seconds_sum{route="POST /b",codec="json"} 2
x_seconds_count{route="POST /b",codec="json"} 1
# HELP x_wait_seconds Unlabelled.
# TYPE x_wait_seconds summary
x_wait_seconds{quantile="0.5"} 1.5
x_wait_seconds{quantile="0.99"} 1.5
x_wait_seconds_sum 1.5
x_wait_seconds_count 1
`
	if got := exposition(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	// The writer's output is what the reader side parses.
	m, err := ParseMetrics(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Value("x_backend_up", "backend", `http://a"b`); v != 1 {
		t.Errorf("parsed backend_up = %g, want 1", v)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "Total.").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestRegistryRedeclarePanics(t *testing.T) {
	for name, declare := range map[string]func(r *Registry){
		"vec twice":     func(r *Registry) { r.CounterVec("x", "", "k"); r.CounterVec("x", "", "k") },
		"kind mismatch": func(r *Registry) { r.Counter("x", ""); r.Gauge("x", "") },
		"series on vec": func(r *Registry) { r.CounterVec("x", "", "k"); r.Counter("x", "", "k", "v") },
		"odd labels":    func(r *Registry) { r.Counter("x", "", "k") },
		"value count":   func(r *Registry) { r.CounterVec("x", "", "k").With("a", "b") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			declare(NewRegistry())
		}()
	}
}

// TestRegistryConcurrent records from several goroutines while scraping;
// run under -race it checks handles need no registry lock.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("x_requests_total", "Requests.", "route")
	lat := r.SummaryVec("x_seconds", "Latency.", "route")
	g := r.Gauge("x_inflight", "In flight.")
	const workers, n = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, h := reqs.With("r"), lat.With("r")
			for i := 0; i < n; i++ {
				g.Add(1)
				c.Inc()
				h.Record(time.Millisecond)
				g.Add(-1)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		exposition(t, r)
	}
	wg.Wait()
	m, err := ParseMetrics(strings.NewReader(exposition(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Value("x_requests_total", "route", "r"); v != workers*n {
		t.Errorf("requests = %g, want %d", v, workers*n)
	}
	if v, _ := m.Value("x_seconds_count", "route", "r"); v != workers*n {
		t.Errorf("count = %g, want %d", v, workers*n)
	}
	if v, _ := m.Value("x_inflight"); v != 0 {
		t.Errorf("inflight = %g, want 0", v)
	}
}
