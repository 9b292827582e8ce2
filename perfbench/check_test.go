package main

import (
	"slices"
	"strings"
	"testing"

	"mpsched/internal/dfg"
	"mpsched/internal/wire"
)

// chain3 is a → b → a plus a lone c; goodAnswer schedules it in three
// cycles with the patterns "ac" and "b".
func chain3(t *testing.T) *refGraph {
	t.Helper()
	d := dfg.NewGraph("chain3")
	x := d.MustAddNode(dfg.Node{Name: "x", Color: "a"})
	y := d.MustAddNode(dfg.Node{Name: "y", Color: "b"})
	z := d.MustAddNode(dfg.Node{Name: "z", Color: "a"})
	d.MustAddNode(dfg.Node{Name: "w", Color: "c"})
	d.MustAddDep(x, y)
	d.MustAddDep(y, z)
	return newRefGraph(d)
}

func goodAnswer() *wire.CompileResponse {
	return &wire.CompileResponse{
		Nodes: 4, EdgesCount: 2, Cycles: 3, LowerBound: 3,
		CycleOf:           []int{0, 1, 2, 0},
		PatternOf:         []int{0, 1, 0},
		SchedulerPatterns: []string{"ac", "b"},
	}
}

func TestCheckResponseAcceptsValidSchedule(t *testing.T) {
	if err := checkResponse(chain3(t), goodAnswer()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckResponseRejectsBrokenSchedules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *wire.CompileResponse)
		want   string
	}{
		{"node count", func(r *wire.CompileResponse) { r.Nodes = 5 }, "nodes"},
		{"missing node", func(r *wire.CompileResponse) { r.CycleOf = r.CycleOf[:3] }, "cycle_of"},
		{"cycle out of range", func(r *wire.CompileResponse) { r.CycleOf = []int{0, 1, 3, 0} }, "node 2 in cycle 3"},
		{"edge backwards", func(r *wire.CompileResponse) { r.CycleOf = []int{2, 1, 0, 0} }, "edge 0→1"},
		{"edge same cycle", func(r *wire.CompileResponse) {
			r.CycleOf = []int{1, 1, 2, 0}
			r.SchedulerPatterns = []string{"abc", "ab"}
			r.PatternOf = []int{0, 1, 0}
		}, "edge 0→1"},
		{"pattern too small", func(r *wire.CompileResponse) { r.SchedulerPatterns = []string{"a", "b"} }, "holds"},
		{"pattern over C", func(r *wire.CompileResponse) { r.SchedulerPatterns = []string{"aabbcc", "b"} }, "colors, want 1..5"},
		{"too many patterns", func(r *wire.CompileResponse) { r.SchedulerPatterns = []string{"ac", "b", "a", "c", "bc"} }, "5 patterns"},
		{"pattern index", func(r *wire.CompileResponse) { r.PatternOf = []int{0, 2, 0} }, "names pattern 2"},
		{"below lower bound", func(r *wire.CompileResponse) { r.LowerBound = 4 }, "lower bound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := goodAnswer()
			tc.mutate(r)
			err := checkResponse(chain3(t), r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckerRejectsChangedRepeat(t *testing.T) {
	chk := newChecker()
	gr := &graph{ref: chain3(t), warm: 7}
	if _, err := chk.check(gr, goodAnswer()); err != nil {
		t.Fatal(err)
	}
	if _, err := chk.check(gr, goodAnswer()); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	other := goodAnswer()
	other.SchedulerPatterns = []string{"abc", "b"}
	other.PatternOf = slices.Clone(other.PatternOf)
	if _, err := chk.check(gr, other); err == nil {
		t.Fatal("a repeat with a different answer passed")
	}
}
