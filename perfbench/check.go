package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"mpsched/internal/dfg"
	"mpsched/internal/wire"
)

// The compile configuration every request uses: the paper's operating
// point, which the daemon applies when a request names none.
const (
	patternCapacity = 5 // C: colors one pattern holds
	maxPatterns     = 4 // Pdef: patterns one schedule may use
)

// maxColors bounds the corpus palette, colors "a" to "h".
const maxColors = 8

// refGraph is the checker's own view of a generated graph: node colors as
// indexes into the palette, and the edge list. It is built from the
// generator's graph before anything is sent, so the checker never reads
// the program's decoding.
type refGraph struct {
	colors []byte
	edges  [][2]int32
}

func newRefGraph(d *dfg.Graph) *refGraph {
	r := &refGraph{colors: make([]byte, d.N())}
	for v := 0; v < d.N(); v++ {
		c := d.ColorOf(v)
		if len(c) != 1 || c[0] < 'a' || c[0] >= 'a'+maxColors {
			panic(fmt.Sprintf("generator produced color %q outside the corpus palette", c))
		}
		r.colors[v] = c[0] - 'a'
		for _, s := range d.Succs(v) {
			r.edges = append(r.edges, [2]int32{int32(v), int32(s)})
		}
	}
	return r
}

// checkResponse verifies one compile result against its graph,
// independently of the program:
//
//   - the response covers the graph's nodes and edges;
//   - every node has exactly one cycle, and every edge goes from an
//     earlier cycle to a later one;
//   - the schedule uses at most Pdef patterns of at most C colors each,
//     and every cycle's color multiset fits the pattern it names;
//   - the schedule is no shorter than the lower bound it reports.
func checkResponse(g *refGraph, r *wire.CompileResponse) error {
	n := len(g.colors)
	switch {
	case r.Nodes != n || r.EdgesCount != len(g.edges):
		return fmt.Errorf("response describes %d nodes/%d edges, graph has %d/%d", r.Nodes, r.EdgesCount, n, len(g.edges))
	case len(r.CycleOf) != n:
		return fmt.Errorf("cycle_of has %d entries for %d nodes", len(r.CycleOf), n)
	case len(r.PatternOf) != r.Cycles:
		return fmt.Errorf("pattern_of has %d entries for %d cycles", len(r.PatternOf), r.Cycles)
	case len(r.SchedulerPatterns) == 0 || len(r.SchedulerPatterns) > maxPatterns:
		return fmt.Errorf("%d patterns, want 1..%d", len(r.SchedulerPatterns), maxPatterns)
	case r.Cycles < r.LowerBound || r.LowerBound < 1:
		return fmt.Errorf("%d cycles against lower bound %d", r.Cycles, r.LowerBound)
	}
	var capacity [][maxColors]int
	for _, p := range r.SchedulerPatterns {
		if len(p) == 0 || len(p) > patternCapacity {
			return fmt.Errorf("pattern %q holds %d colors, want 1..%d", p, len(p), patternCapacity)
		}
		var c [maxColors]int
		for i := 0; i < len(p); i++ {
			if p[i] < 'a' || p[i] >= 'a'+maxColors {
				return fmt.Errorf("pattern %q names a color outside the palette", p)
			}
			c[p[i]-'a']++
		}
		capacity = append(capacity, c)
	}
	for c, p := range r.PatternOf {
		if p < 0 || p >= len(capacity) {
			return fmt.Errorf("cycle %d names pattern %d of %d", c, p, len(capacity))
		}
	}
	used := make([][maxColors]int, r.Cycles)
	for v, c := range r.CycleOf {
		if c < 0 || c >= r.Cycles {
			return fmt.Errorf("node %d in cycle %d of %d", v, c, r.Cycles)
		}
		col := g.colors[v]
		used[c][col]++
		if used[c][col] > capacity[r.PatternOf[c]][col] {
			return fmt.Errorf("cycle %d runs more %q nodes than its pattern %q holds",
				c, 'a'+col, r.SchedulerPatterns[r.PatternOf[c]])
		}
	}
	for _, e := range g.edges {
		if r.CycleOf[e[0]] >= r.CycleOf[e[1]] {
			return fmt.Errorf("edge %d→%d goes from cycle %d to cycle %d", e[0], e[1], r.CycleOf[e[0]], r.CycleOf[e[1]])
		}
	}
	return nil
}

// answer is the part of a result that must not change between repeats of
// one graph.
type answer struct {
	cycles, lowerBound int
	cycleOf, patternOf []int
	patterns           []string
}

func answerOf(r *wire.CompileResponse) *answer {
	return &answer{r.Cycles, r.LowerBound, r.CycleOf, r.PatternOf, r.SchedulerPatterns}
}

func (a *answer) equal(b *answer) bool {
	return a.cycles == b.cycles && a.lowerBound == b.lowerBound &&
		slices.Equal(a.cycleOf, b.cycleOf) && slices.Equal(a.patternOf, b.patternOf) &&
		slices.Equal(a.patterns, b.patterns)
}

// checker checks every result of a run and remembers the first answer for
// each warm-set graph; later answers for that graph must equal it. Safe
// for concurrent use by the clients.
type checker struct {
	mu    sync.Mutex
	first []*answer // by warm-set index
	fails int
	err   error // first failure
}

func newChecker() *checker { return &checker{first: make([]*answer, warmSetSize)} }

// check verifies r as the answer for gr and returns its cycle count.
func (c *checker) check(gr *graph, r *wire.CompileResponse) (int, error) {
	if err := checkResponse(gr.ref, r); err != nil {
		return 0, err
	}
	if gr.warm < 0 {
		return r.Cycles, nil
	}
	a := answerOf(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first[gr.warm] == nil {
		c.first[gr.warm] = a
	} else if !c.first[gr.warm].equal(a) {
		return 0, errors.New("a repeat of a graph returned a different answer than its first compile")
	}
	return r.Cycles, nil
}

// fail records one failed job.
func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails++
	if c.err == nil {
		c.err = err
	}
}
