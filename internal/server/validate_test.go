package server

import (
	"encoding/json"
	"errors"
	"testing"

	"mpsched/internal/wire"
)

func TestValidateCompileRequest(t *testing.T) {
	dfg := json.RawMessage(`{"name":"g","nodes":[]}`)
	cases := []struct {
		name  string
		req   wire.CompileRequest
		field string // expected FieldError.Field, "" = valid
	}{
		{"workload ok", wire.CompileRequest{Workload: "3dft"}, ""},
		{"dfg ok", wire.CompileRequest{DFG: dfg}, ""},
		{"no graph", wire.CompileRequest{}, "workload"},
		{"both graphs", wire.CompileRequest{Workload: "3dft", DFG: dfg}, "workload"},
		{"negative c", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{C: -1}}, "select.c"},
		{"negative pdef", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Pdef: -2}}, "select.pdef"},
		{"bad span", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Span: -3}}, "select.span"},
		{"unlimited span ok", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Span: -1}}, ""},
		{"negative epsilon", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Epsilon: -0.5}}, "select.epsilon"},
		{"negative alpha", wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Alpha: -1}}, "select.alpha"},
		{"bad priority", wire.CompileRequest{Workload: "3dft", Sched: &wire.SchedConfig{Priority: "F9"}}, "sched.priority"},
		{"good priority", wire.CompileRequest{Workload: "3dft", Sched: &wire.SchedConfig{Priority: "f1"}}, ""},
		{"bad tie", wire.CompileRequest{Workload: "3dft", Sched: &wire.SchedConfig{Tie: "sideways"}}, "sched.tie"},
		{"stop select ok", wire.CompileRequest{Workload: "3dft", StopAfter: "select"}, ""},
		{"stop census ok", wire.CompileRequest{Workload: "3dft", StopAfter: "census"}, ""},
		{"stop schedule ok", wire.CompileRequest{Workload: "3dft", StopAfter: "schedule"}, ""},
		{"stop unknown", wire.CompileRequest{Workload: "3dft", StopAfter: "link"}, "stop_after"},
		{"stop parse rejected", wire.CompileRequest{Workload: "3dft", StopAfter: "parse"}, "stop_after"},
		{"spans ok", wire.CompileRequest{Workload: "3dft", Spans: []int{0, 1, 2}}, ""},
		{"bad span value", wire.CompileRequest{Workload: "3dft", Spans: []int{0, -2}}, "spans"},
		{"spans with stop select", wire.CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "select"}, "spans"},
		{"spans with stop census", wire.CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "census"}, "spans"},
		{"spans with stop schedule", wire.CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "schedule"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateRequest(tc.req)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want a *FieldError", err, err)
			}
			if fe.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

// TestToJobRejectsWithFieldErrors pins that the handler path surfaces the
// typed validation errors as 400s with the field name in the message.
func TestToJobRejectsWithFieldErrors(t *testing.T) {
	_, err := toJob(wire.CompileRequest{Workload: "3dft", Select: &wire.SelectConfig{Pdef: -1}})
	if err == nil {
		t.Fatal("invalid request accepted")
	}
	var bad badRequestError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %T, want badRequestError", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "select.pdef" {
		t.Fatalf("err = %v, want a select.pdef FieldError", err)
	}
}
