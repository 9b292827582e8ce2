package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's Prometheus type.
type Kind string

// The family types a Registry exposes.
const (
	CounterKind Kind = "counter"
	GaugeKind   Kind = "gauge"
	SummaryKind Kind = "summary"
)

// Registry holds metric families and writes them as one Prometheus text
// exposition, families in declaration order. Families are declared at
// start-up in one of three ways:
//
//   - Counter, Gauge and Summary declare one series and return its
//     handle. Declaring the same name again with other label pairs adds
//     a series to that family, rendered in declaration order.
//   - CounterVec and SummaryVec declare a family keyed by label names.
//     With resolves one series' handle; the family renders its series
//     sorted by label values. With takes the family lock, so resolve
//     handles once, outside the request path.
//   - Sampled, CounterFunc and GaugeFunc declare a family whose values
//     are owned elsewhere and read at each scrape.
//
// A summary series with no observations is left out, as is a counter
// series a Vec made that is still zero; a family left with no series
// writes no HELP or TYPE line either. Recording into a handle takes no
// registry lock: counters and gauges are atomics, and a summary is a
// LockedHistogram, rendered as its p50 and p99 plus _sum and _count, in
// seconds.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

type family struct {
	name, help string
	kind       Kind
	keys       []string // label names of a Vec or sampled family
	sampled    func(emit func(v float64, values ...string))

	mu     sync.Mutex
	series []*series
}

type series struct {
	values  []string // label values: a Vec family's sort key
	labels  string   // rendered label pairs, `k="v",...`, or ""
	fromVec bool     // made by With: left out while it holds nothing
	m       metric
}

// metric writes one series' samples, or none when it holds nothing and
// hideEmpty is set.
type metric interface {
	expose(t *textWriter, labels string, hideEmpty bool)
}

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(t *textWriter, labels string, hideEmpty bool) {
	if v := c.Value(); v != 0 || !hideEmpty {
		t.sample("", labels, float64(v))
	}
}

// Gauge is a series that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n, which may be negative.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) expose(t *textWriter, labels string, _ bool) {
	t.sample("", labels, float64(g.Value()))
}

func (l *LockedHistogram) expose(t *textWriter, labels string, _ bool) {
	h := l.Snapshot()
	if h.Count() == 0 {
		return
	}
	q := `quantile="`
	if labels != "" {
		q = labels + "," + q
	}
	t.sample("", q+`0.5"`, h.Quantile(0.5).Seconds())
	t.sample("", q+`0.99"`, h.Quantile(0.99).Seconds())
	t.sample("_sum", labels, h.Sum().Seconds())
	t.sample("_count", labels, float64(h.Count()))
}

// add registers f and returns it. With join set, an existing family of
// the same name is returned instead, provided it holds declared series
// of the same kind.
func (r *Registry) add(f *family, join bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.families {
		if g.name == f.name {
			if !join || g.kind != f.kind || g.keys != nil || g.sampled != nil {
				panic("obs: metric family " + f.name + " declared twice")
			}
			return g
		}
	}
	r.families = append(r.families, f)
	return f
}

// declare adds one series, labelled by name/value pairs, to the named
// family.
func (r *Registry) declare(name, help string, kind Kind, labels []string, m metric) {
	if len(labels)%2 != 0 {
		panic("obs: odd label name/value list for " + name)
	}
	var keys, values []string
	for i := 0; i < len(labels); i += 2 {
		keys, values = append(keys, labels[i]), append(values, labels[i+1])
	}
	f := r.add(&family{name: name, help: help, kind: kind}, true)
	f.mu.Lock()
	f.series = append(f.series, &series{labels: renderLabels(keys, values), m: m})
	f.mu.Unlock()
}

// Counter declares a counter series; labels are name, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := new(Counter)
	r.declare(name, help, CounterKind, labels, c)
	return c
}

// Gauge declares a gauge series; labels are name, value pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := new(Gauge)
	r.declare(name, help, GaugeKind, labels, g)
	return g
}

// Summary declares a summary series; labels are name, value pairs.
func (r *Registry) Summary(name, help string, labels ...string) *LockedHistogram {
	h := new(LockedHistogram)
	r.declare(name, help, SummaryKind, labels, h)
	return h
}

// CounterVec is a counter family keyed by label names.
type CounterVec struct{ f *family }

// CounterVec declares a counter family keyed by the given label names.
func (r *Registry) CounterVec(name, help string, keys ...string) CounterVec {
	return CounterVec{r.add(&family{name: name, help: help, kind: CounterKind, keys: keys}, false)}
}

// With returns the counter for the given label values, one per key.
func (v CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() metric { return new(Counter) }).(*Counter)
}

// SummaryVec is a summary family keyed by label names.
type SummaryVec struct{ f *family }

// SummaryVec declares a summary family keyed by the given label names.
func (r *Registry) SummaryVec(name, help string, keys ...string) SummaryVec {
	return SummaryVec{r.add(&family{name: name, help: help, kind: SummaryKind, keys: keys}, false)}
}

// With returns the summary for the given label values, one per key.
func (v SummaryVec) With(values ...string) *LockedHistogram {
	return v.f.with(values, func() metric { return new(LockedHistogram) }).(*LockedHistogram)
}

// with finds or creates the series for values, keeping the series
// sorted by label values.
func (f *family) with(values []string, mk func() metric) metric {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric family %s takes %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, found := slices.BinarySearchFunc(f.series, values, func(s *series, v []string) int {
		return slices.Compare(s.values, v)
	})
	if !found {
		s := &series{values: slices.Clone(values), labels: renderLabels(f.keys, values), fromVec: true, m: mk()}
		f.series = slices.Insert(f.series, i, s)
	}
	return f.series[i].m
}

// Sampled declares a family whose values are read at each scrape:
// collect calls emit once per series, with one label value per key.
func (r *Registry) Sampled(name, help string, kind Kind, keys []string, collect func(emit func(v float64, values ...string))) {
	r.add(&family{name: name, help: help, kind: kind, keys: keys, sampled: collect}, false)
}

// CounterFunc declares an unlabelled counter read from f at each scrape.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.Sampled(name, help, CounterKind, nil, func(emit func(float64, ...string)) { emit(f()) })
}

// GaugeFunc declares an unlabelled gauge read from f at each scrape.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.Sampled(name, help, GaugeKind, nil, func(emit func(float64, ...string)) { emit(f()) })
}

// WriteText writes every family in the Prometheus text format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := slices.Clone(r.families)
	r.mu.Unlock()
	t := &textWriter{w: bufio.NewWriter(w)}
	for _, f := range families {
		t.f, t.started = f, false
		if f.sampled != nil {
			f.sampled(func(v float64, values ...string) { t.sample("", renderLabels(f.keys, values), v) })
			continue
		}
		f.mu.Lock()
		ss := slices.Clone(f.series)
		f.mu.Unlock()
		for _, s := range ss {
			s.m.expose(t, s.labels, s.fromVec)
		}
	}
	return t.w.Flush()
}

// ServeHTTP serves the exposition, as a daemon's GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w) // a failed write means the scraper hung up; there is no one to tell
}

// textWriter writes one family's samples, preceded by its HELP and TYPE
// lines once a first sample exists.
type textWriter struct {
	w       *bufio.Writer
	f       *family
	started bool
}

func (t *textWriter) sample(suffix, labels string, v float64) {
	if !t.started {
		t.started = true
		fmt.Fprintf(t.w, "# HELP %s %s\n# TYPE %s %s\n", t.f.name, t.f.help, t.f.name, t.f.kind)
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// Whole numbers print as integers, the rest in the shortest %g form.
	val := strconv.FormatFloat(v, 'g', -1, 64)
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		val = strconv.FormatInt(int64(v), 10)
	}
	t.w.WriteString(t.f.name + suffix + labels + " " + val + "\n")
}

// renderLabels formats label pairs as `k1="v1",k2="v2"`, values quoted
// with Go escaping, which the exposition parser reads back.
func renderLabels(keys, values []string) string {
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, values[i])
	}
	return string(b)
}
