package gridpipe

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestWithBatchOrderedOutputUnchanged(t *testing.T) {
	mk := func() *Pipeline {
		p, err := New(
			Stage("tag", func(_ context.Context, v any) (any, error) {
				return fmt.Sprintf("t%d", v), nil
			}, Weight(0.01)),
			Stage("up", func(_ context.Context, v any) (any, error) {
				return v.(string) + "!", nil
			}, Weight(0.02), Replicable(), Replicas(3)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	in := make([]any, 200)
	for i := range in {
		in[i] = i
	}
	plain := mk()
	want, err := plain.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	batched := mk()
	if err := batched.WithBatch(16); err != nil {
		t.Fatal(err)
	}
	got, err := batched.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWithBatchValidates(t *testing.T) {
	p, err := New(Stage("a", sleeper(time.Microsecond), Weight(0.01)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithBatch(0); err == nil {
		t.Fatal("WithBatch(0) accepted")
	}
	if err := p.WithBatch(-7); err == nil {
		t.Fatal("WithBatch(-7) accepted")
	}
	// Auto grain without a live controller must refuse at build time.
	if err := p.WithBatch(GrainAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err == nil {
		t.Fatal("GrainAuto without WithLiveAdaptive should fail to start")
	}
	started, err := New(Stage("a", sleeper(time.Microsecond), Weight(0.01)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := started.Process(context.Background(), []any{1}); err != nil {
		t.Fatal(err)
	}
	if err := started.WithBatch(4); err == nil {
		t.Fatal("WithBatch after the pipeline ran accepted")
	}
}

// Under a static policy the controller never ticks, so nothing would
// walk an auto grain: the run refuses to start and names the policy.
// The refused run leaves the pipeline unspent: armed with an adaptive
// policy, it runs.
func TestWithBatchGrainAutoRefusesStaticPolicy(t *testing.T) {
	p, err := New(Stage("a", sleeper(time.Microsecond), Weight(0.01), Replicable()))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithLiveAdaptive(PolicyStatic); err != nil {
		t.Fatal(err)
	}
	if err := p.WithBatch(GrainAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err == nil || !strings.Contains(err.Error(), "non-static") {
		t.Fatalf("GrainAuto under a static policy: error %v, want one naming non-static", err)
	}
	if err := p.WithLiveAdaptive(PolicyPeriodic); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err != nil {
		t.Fatalf("re-armed after a refused run: %v", err)
	}
}

func TestWithBatchGrainAutoReports(t *testing.T) {
	p, err := New(
		Stage("w", func(_ context.Context, v any) (any, error) { return v, nil },
			Weight(0.01), Replicable(), Replicas(2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithLiveAdaptive(PolicyPeriodic, LiveAdaptiveOptions{
		Interval: 10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.WithBatch(GrainAuto); err != nil {
		t.Fatal(err)
	}
	in := make([]any, 50000)
	for i := range in {
		in[i] = i
	}
	out, err := p.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != in[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	rep := p.LiveAdaptiveReport()
	// The walk's ceiling is a constant: 256 (liveadapt's maxGrain).
	if rep.Grain < 1 || rep.Grain > 256 {
		t.Fatalf("reported grain %d outside [1, 256]", rep.Grain)
	}
}

// TestWithBatchLastCallWins: the model rates the grain the live run
// will use, so a later WithBatch(1) or WithBatch(GrainAuto) must undo
// an earlier WithBatch(64) in PredictMapping too. On LAN links (0.1 ms
// per transfer) a batched rating charges each item 1/64 of a transfer
// latency on top of its bytes, which makes this pipeline link-bound at
// grain 64 and work-bound per-item, so a stale grain shows.
func TestWithBatchLastCallWins(t *testing.T) {
	mk := func() *Pipeline {
		p, err := New(
			Stage("a", nil, Weight(1e-5), OutBytes(1100)),
			Stage("b", nil, Weight(1e-5), OutBytes(1100)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	g, err := HomogeneousGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(p *Pipeline) (string, float64) {
		m, thr, err := p.PredictMapping(g, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m, thr
	}
	wantM, wantThr := predict(mk())

	coarse := mk()
	if err := coarse.WithBatch(64); err != nil {
		t.Fatal(err)
	}
	if m, thr := predict(coarse); m == wantM && thr == wantThr {
		t.Fatalf("grain 64 rated like per-item (%s, %v): the fixture cannot show a stale grain", m, thr)
	}
	for _, n := range []int{1, GrainAuto} {
		p := mk()
		if err := p.WithBatch(64); err != nil {
			t.Fatal(err)
		}
		if err := p.WithBatch(n); err != nil {
			t.Fatal(err)
		}
		if m, thr := predict(p); m != wantM || thr != wantThr {
			t.Fatalf("WithBatch(64) then WithBatch(%d): predicted %s at %v, a fresh pipeline %s at %v",
				n, m, thr, wantM, wantThr)
		}
	}
}
