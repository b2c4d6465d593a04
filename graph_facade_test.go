package gridpipe

import (
	"context"
	"strings"
	"testing"
)

func ident(_ context.Context, v any) (any, error) { return v, nil }

func diamondDefs() []StageDef {
	return []StageDef{
		Stage("head", func(_ context.Context, v any) (any, error) { return v.(int) + 1, nil },
			Weight(0.05), OutBytes(1e5)),
		Split(
			Branch(Stage("double", func(_ context.Context, v any) (any, error) { return v.(int) * 2, nil },
				Weight(0.2), OutBytes(1e5), Replicable(), Replicas(2))),
			Branch(Stage("negate", func(_ context.Context, v any) (any, error) { return -v.(int), nil },
				Weight(0.2), OutBytes(1e5), Replicable())),
		),
		Merge("sum", func(_ context.Context, v any) (any, error) {
			parts := v.([]any)
			return parts[0].(int) + parts[1].(int), nil
		}, Weight(0.05)),
	}
}

func TestSplitMergeLive(t *testing.T) {
	p, err := New(diamondDefs()...)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 4 {
		t.Fatalf("NumStages = %d, want 4 (flattened)", p.NumStages())
	}
	if p.Graph().Linear() {
		t.Fatal("diamond graph reported linear")
	}
	var in []any
	for i := 0; i < 100; i++ {
		in = append(in, i)
	}
	out, err := p.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		// head: i+1; double: 2(i+1); negate: -(i+1); sum: i+1.
		if want := i + 1; v.(int) != want {
			t.Fatalf("out[%d] = %v, want %d", i, v, want)
		}
	}
}

func TestSplitMergeSimulate(t *testing.T) {
	// Simulation-only variant (nil fns) of the same diamond.
	p, err := New(
		Stage("head", nil, Weight(0.05), OutBytes(1e5)),
		Split(
			Branch(Stage("left", nil, Weight(0.2), OutBytes(1e5), Replicable())),
			Branch(Stage("right", nil, Weight(0.2), OutBytes(1e5), Replicable())),
		),
		Merge("tail", nil, Weight(0.05)),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := HomogeneousGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(g, SimOptions{Items: 300, Seed: 3, InBytes: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 300 {
		t.Fatalf("done = %d", rep.Done)
	}
	// Both branches bound the rate at 1/0.2 with the branch stages on
	// their own nodes; throughput must be in that regime, far above
	// the serial-work bound would allow if branches serialised badly.
	if rep.Throughput < 2.5 {
		t.Fatalf("throughput = %v, want ≥ 2.5", rep.Throughput)
	}
	if rep.MeanLatency <= 0 {
		t.Fatalf("mean latency = %v", rep.MeanLatency)
	}
}

func TestNewHardening(t *testing.T) {
	cases := []struct {
		name string
		defs []StageDef
		want string
	}{
		{"duplicate names", []StageDef{
			Stage("x", ident), Stage("x", ident),
		}, "duplicate stage name"},
		{"zero replicas", []StageDef{
			Stage("x", ident, Replicas(0)),
		}, "non-positive replicas"},
		{"negative replicas", []StageDef{
			Stage("x", ident, Replicas(-3)),
		}, "non-positive replicas"},
		{"replicas without replicable", []StageDef{
			Stage("x", ident, Replicas(4)),
		}, "not Replicable"},
		{"zero buffer", []StageDef{
			Stage("x", ident, Buffer(0)),
		}, "non-positive buffer"},
		{"leading split", []StageDef{
			Split(Branch(Stage("a", ident)), Branch(Stage("b", ident))),
			Merge("m", ident),
		}, "cannot start with a Split"},
		{"single-branch split", []StageDef{
			Stage("h", ident),
			Split(Branch(Stage("a", ident))),
			Merge("m", ident),
		}, "at least 2 branches"},
		{"empty branch", []StageDef{
			Stage("h", ident),
			Split(Branch(), Branch(Stage("b", ident))),
			Merge("m", ident),
		}, "branch 0 is empty"},
		{"merge without split", []StageDef{
			Stage("h", ident), Merge("m", ident),
		}, "without a preceding Split"},
		{"unclosed split", []StageDef{
			Stage("h", ident),
			Split(Branch(Stage("a", ident)), Branch(Stage("b", ident))),
		}, "ends inside a Split"},
		{"plain stage after split", []StageDef{
			Stage("h", ident),
			Split(Branch(Stage("a", ident)), Branch(Stage("b", ident))),
			Stage("t", ident),
		}, "follows a Split"},
		{"split after split", []StageDef{
			Stage("h", ident),
			Split(Branch(Stage("a", ident)), Branch(Stage("b", ident))),
			Split(Branch(Stage("c", ident)), Branch(Stage("d", ident))),
			Merge("m", ident),
		}, "nested Split"},
		{"nested split in branch", []StageDef{
			Stage("h", ident),
			Split(
				Branch(Split(Branch(Stage("a", ident)), Branch(Stage("b", ident)))),
				Branch(Stage("c", ident)),
			),
			Merge("m", ident),
		}, "nested Split"},
	}
	for _, c := range cases {
		_, err := New(c.defs...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestBranchChains(t *testing.T) {
	// Multi-stage branches flatten in order and still join 1-for-1.
	p, err := New(
		Stage("h", ident, Weight(0.01)),
		Split(
			Branch(
				Stage("a1", func(_ context.Context, v any) (any, error) { return v.(int) + 10, nil }, Weight(0.01)),
				Stage("a2", func(_ context.Context, v any) (any, error) { return v.(int) * 10, nil }, Weight(0.01)),
			),
			Branch(Stage("b", ident, Weight(0.01))),
		),
		Merge("j", func(_ context.Context, v any) (any, error) {
			parts := v.([]any)
			return parts[0].(int) - parts[1].(int), nil
		}, Weight(0.01)),
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Process(context.Background(), []any{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		x := i + 1
		if want := (x+10)*10 - x; v.(int) != want {
			t.Fatalf("out[%d] = %v, want %d", i, v, want)
		}
	}
}
