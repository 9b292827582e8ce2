package server

import (
	"encoding/json"
	"sort"
	"strings"

	"mpsched/internal/cliutil"
	"mpsched/internal/dfg"
	"mpsched/internal/patsel"
	"mpsched/internal/pattern"
	"mpsched/internal/pipeline"
	"mpsched/internal/sched"
	"mpsched/internal/wire"
)

// badRequestError marks request-shaped failures (malformed graph, unknown
// workload, invalid config) so handlers map them to 400 rather than 422.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// toJob resolves the request into a pipeline job. All failures are
// badRequestError: nothing has been compiled yet, so the fault is in the
// request. Shape checks live in validateRequest; this function only
// resolves the graph and converts the wire configs. A non-nil graph is a
// pre-resolved substitute for req.Workload (the server's spec cache
// path — see Server.resolveJob).
func toJob(req wire.CompileRequest) (pipeline.Job, error) { return toJobGraph(req, nil) }

func toJobGraph(req wire.CompileRequest, cached *dfg.Graph) (pipeline.Job, error) {
	job := pipeline.Job{Name: req.Name}
	if err := validateRequest(req); err != nil {
		return job, badRequestError{err}
	}

	switch {
	case req.Workload != "":
		g := cached
		if g == nil {
			var err error
			if g, err = cliutil.Generate(req.Workload); err != nil {
				return job, badRequestError{err}
			}
		}
		job.Graph = g
		if job.Name == "" {
			job.Name = req.Workload
		}
	case req.Graph != nil:
		job.Graph = req.Graph
	default:
		var g dfg.Graph
		if err := json.Unmarshal(req.DFG, &g); err != nil {
			return job, badRequestError{err}
		}
		job.Graph = &g
	}

	sel := patsel.Config{Pdef: defaultPdef}
	if c := req.Select; c != nil {
		if c.C != 0 {
			sel.C = c.C
		}
		if c.Pdef != 0 {
			sel.Pdef = c.Pdef
		}
		sel.MaxSpan = c.Span
		sel.Epsilon = c.Epsilon
		sel.Alpha = c.Alpha
	}
	job.Select = sel

	if c := req.Sched; c != nil {
		opts := sched.Options{Seed: c.Seed, SwitchPenalty: c.SwitchPenalty}
		if c.Priority != "" {
			opts.Priority, _ = cliutil.ParsePriority(c.Priority) // validated above
		}
		if c.Tie != "" {
			opts.TieBreak, _ = cliutil.ParseTieBreak(c.Tie) // validated above
		}
		job.Sched = opts
	}

	job.StopAfter = stopStages[req.StopAfter] // validated above
	job.Spans = req.Spans
	return job, nil
}

// defaultPdef matches the CLI default: select 4 patterns when the request
// does not say otherwise.
const defaultPdef = 4

// toResponse converts a successful pipeline result to the wire shape.
// Fields are filled stage by stage, so partial compiles (stop_after)
// render exactly what they produced.
func toResponse(r pipeline.Result) *wire.CompileResponse {
	resp := &wire.CompileResponse{
		Name:       r.Job.Label(),
		Nodes:      r.Job.Graph.N(),
		EdgesCount: r.Job.Graph.M(),
		CacheHit:   r.CacheHit,
		ElapsedMS:  r.Elapsed.Seconds() * 1e3,
	}
	if r.Job.StopAfter != pipeline.StageAll {
		resp.StopAfter = r.Job.StopAfter.String()
	}
	if rep := r.Report; rep != nil {
		resp.Span = rep.Span
		resp.SweptSpans = rep.SweptSpans
		if rep.Census != nil {
			resp.Census = &wire.CensusResponse{
				Antichains: rep.Census.Antichains,
				Classes:    rep.Census.Classes,
				Span:       rep.Census.Span,
			}
		}
		for _, st := range rep.Stages {
			resp.Stages = append(resp.Stages, wire.StageTimingResponse{
				Stage: st.Stage.String(),
				MS:    st.Elapsed.Seconds() * 1e3,
			})
		}
	}

	if sc := r.Schedule; sc != nil {
		resp.SchedulerPatterns = compactPatterns(sc.Patterns)
		resp.Patterns = append([]string(nil), resp.SchedulerPatterns...)
		sort.Strings(resp.Patterns)
		resp.Cycles = sc.Length()
		resp.Utilization = sc.Utilization()
		resp.CycleOf = sc.CycleOf
		resp.PatternOf = sc.PatternOf
		if lb, err := sched.LowerBound(r.Job.Graph, sc.Patterns); err == nil {
			resp.LowerBound = lb
		}
	} else if r.Selection != nil {
		resp.Patterns = compactPatterns(r.Selection.Patterns)
		sort.Strings(resp.Patterns)
	}
	return resp
}

func compactPatterns(ps *pattern.Set) []string {
	if ps == nil {
		return nil
	}
	compact := make([]string, 0, ps.Len())
	for _, p := range ps.Patterns() {
		compact = append(compact, p.Compact())
	}
	return compact
}

// errString compacts an error chain for the wire: internal package
// prefixes are kept (they are useful), newlines are not.
func errString(err error) string {
	return strings.ReplaceAll(err.Error(), "\n", " ")
}
