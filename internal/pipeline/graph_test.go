package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gridpipe/internal/topo"
)

// diamondStages builds head → {double, negate} → sum over ints: the
// merge receives []any{double(v), negate(v)} and adds them.
func diamondPipeline(t *testing.T, reps int) *Pipeline {
	t.Helper()
	p, err := NewGraph(
		[]Stage{
			{Name: "head", Fn: func(_ context.Context, v any) (any, error) { return v.(int) + 1, nil }},
			{Name: "double", Fn: func(_ context.Context, v any) (any, error) { return v.(int) * 2, nil }, Replicas: reps},
			{Name: "negate", Fn: func(_ context.Context, v any) (any, error) { return -v.(int), nil }, Replicas: reps},
			{Name: "sum", Fn: func(_ context.Context, v any) (any, error) {
				parts := v.([]any)
				return parts[0].(int) + parts[1].(int), nil
			}},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGraphDiamondOrderedResults(t *testing.T) {
	p := diamondPipeline(t, 3)
	var in []any
	for i := 0; i < 200; i++ {
		in = append(in, i)
	}
	out, err := p.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		// head: i+1; branches: 2(i+1) and -(i+1); sum: i+1.
		if want := i + 1; v.(int) != want {
			t.Fatalf("out[%d] = %v, want %d (fan-in order broken)", i, v, want)
		}
	}
	st := p.Stats()
	for i, s := range st {
		if s.Count != 200 {
			t.Fatalf("stage %d (%s) count = %d", i, s.Name, s.Count)
		}
	}
}

func TestGraphBranchErrorPropagates(t *testing.T) {
	p, err := NewGraph(
		[]Stage{
			{Name: "head", Fn: func(_ context.Context, v any) (any, error) { return v, nil }},
			{Name: "ok", Fn: func(_ context.Context, v any) (any, error) { return v, nil }},
			{Name: "bad", Fn: func(_ context.Context, v any) (any, error) {
				if v.(int) == 7 {
					return nil, errors.New("branch boom")
				}
				return v, nil
			}},
			{Name: "join", Fn: func(_ context.Context, v any) (any, error) { return v.([]any)[0], nil }},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var in []any
	for i := 0; i < 20; i++ {
		in = append(in, i)
	}
	if _, err := p.Process(context.Background(), in); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
}

func TestGraphReplicatedMergeKeepsOrder(t *testing.T) {
	// Replicate the merge stage itself: its reorder ring must restore
	// the zip order downstream.
	p, err := NewGraph(
		[]Stage{
			{Name: "src", Fn: func(_ context.Context, v any) (any, error) { return v, nil }},
			{Name: "a", Fn: func(_ context.Context, v any) (any, error) { return v, nil }, Replicas: 4},
			{Name: "b", Fn: func(_ context.Context, v any) (any, error) { return fmt.Sprintf("#%d", v), nil }, Replicas: 2},
			{Name: "join", Fn: func(_ context.Context, v any) (any, error) {
				parts := v.([]any)
				return fmt.Sprintf("%v/%v", parts[0], parts[1]), nil
			}, Replicas: 4},
		},
		[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var in []any
	for i := 0; i < 300; i++ {
		in = append(in, i)
	}
	out, err := p.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := fmt.Sprintf("%d/#%d", i, i); v.(string) != want {
			t.Fatalf("out[%d] = %q, want %q", i, v, want)
		}
	}
}

func TestNewGraphValidation(t *testing.T) {
	id := func(_ context.Context, v any) (any, error) { return v, nil }
	// Backward edge.
	if _, err := NewGraph(
		[]Stage{{Fn: id}, {Fn: id}},
		[]topo.Edge{{From: 1, To: 0}},
	); err == nil {
		t.Fatal("backward edge accepted")
	}
	// Disconnected interior stage.
	if _, err := NewGraph(
		[]Stage{{Fn: id}, {Fn: id}, {Fn: id}},
		[]topo.Edge{{From: 0, To: 2}},
	); err == nil {
		t.Fatal("disconnected stage accepted")
	}
	// Chain via New still works.
	if _, err := New(Stage{Fn: id}, Stage{Fn: id}); err != nil {
		t.Fatal(err)
	}
	// An unordered stage numbers its slabs by completion, so the indices
	// stay contiguous and a merge downstream would zip mismatched items
	// without tripping the skew check: it is the one stage of a farm or
	// it is refused, in a chain and in a diamond alike.
	if _, err := New(Stage{Fn: id, Unordered: true}); err != nil {
		t.Fatalf("one unordered stage refused: %v", err)
	}
	for at := 0; at < 2; at++ {
		chain := []Stage{{Fn: id}, {Fn: id}}
		chain[at].Unordered = true
		if _, err := New(chain...); err == nil {
			t.Fatalf("unordered stage %d of a 2-stage chain accepted", at)
		}
	}
	for at := 0; at < 4; at++ {
		stages := []Stage{{Fn: id}, {Fn: id}, {Fn: id}, {Fn: id}}
		stages[at].Unordered = true
		if _, err := NewGraph(stages,
			[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
		); err == nil {
			t.Fatalf("unordered stage %d of a diamond accepted", at)
		}
	}
}
