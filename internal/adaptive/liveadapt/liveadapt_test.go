package liveadapt

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/pipeline"
)

// fakeTarget is a scripted Target for exercising the sensor/actuator
// without wall time.
type fakeTarget struct {
	mu     sync.Mutex
	reps   []int
	counts []int64
	sums   []time.Duration
}

func (f *fakeTarget) NumStages() int { return len(f.reps) }
func (f *fakeTarget) Replicas(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reps[i]
}
func (f *fakeTarget) SetReplicas(i, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reps[i] = n
	return nil
}
func (f *fakeTarget) Totals(i int) (int64, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[i], f.sums[i]
}

// observe advances stage i by n items of mean service d.
func (f *fakeTarget) observe(i int, n int64, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[i] += n
	f.sums[i] += time.Duration(n) * d
}

func newFake(reps ...int) *fakeTarget {
	return &fakeTarget{
		reps:   append([]int(nil), reps...),
		counts: make([]int64, len(reps)),
		sums:   make([]time.Duration, len(reps)),
	}
}

func subFor(t *testing.T, target Target, info []StageInfo, cfg Config) *liveSub {
	t.Helper()
	ctrl, err := newController(target, info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.sub
}

func TestProposeNeedsSignalOnEveryReplicableStage(t *testing.T) {
	f := newFake(1, 1)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyPeriodic, MaxWorkers: 8})
	f.observe(0, 10, 2*time.Millisecond) // stage 1 never observed
	s.Sample(1)
	if p, searched := s.Propose(s.Loads(adaptive.LoadLast, 1)); searched || p != nil {
		t.Fatalf("proposed with an unobserved stage: %+v searched=%t", p, searched)
	}
}

func TestProposeApportionsBudgetProportionally(t *testing.T) {
	f := newFake(1, 1, 1)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyPeriodic, MaxWorkers: 8})
	f.observe(0, 10, 2*time.Millisecond)
	f.observe(1, 10, 20*time.Millisecond)
	f.observe(2, 10, 2*time.Millisecond)
	s.Sample(1)
	loads := s.Loads(adaptive.LoadLast, 1)
	p, searched := s.Propose(loads)
	if !searched || p == nil {
		t.Fatalf("no proposal: searched=%t", searched)
	}
	next := p.Ref.(Replicas)
	if next[1] < 5 || next[0] < 1 || next[2] < 1 {
		t.Fatalf("apportionment %v did not favour the heavy stage", next)
	}
	if total := next[0] + next[1] + next[2]; total != 8 {
		t.Fatalf("budget not fully used: %v (total %d)", next, total)
	}
	if p.Predicted <= 0 || math.IsNaN(p.Predicted) {
		t.Fatalf("predicted = %v", p.Predicted)
	}
	if p.From.String() != "[1 1 1]" || p.To.String() != next.String() {
		t.Fatalf("placements: %s -> %s", p.From, p.To)
	}
}

func TestProposeKeepsNonReplicableStages(t *testing.T) {
	f := newFake(2, 1)
	info := []StageInfo{
		{Name: "pin", Weight: 1, Replicable: false},
		{Name: "flex", Weight: 1, Replicable: true},
	}
	s := subFor(t, f, info, Config{Policy: adaptive.PolicyPeriodic, MaxWorkers: 6})
	f.observe(0, 10, 5*time.Millisecond)
	f.observe(1, 10, 5*time.Millisecond)
	s.Sample(1)
	p, searched := s.Propose(s.Loads(adaptive.LoadLast, 1))
	if !searched || p == nil {
		t.Fatalf("no proposal: searched=%t", searched)
	}
	next := p.Ref.(Replicas)
	if next[0] != 2 {
		t.Fatalf("non-replicable stage resized: %v", next)
	}
	if next[1] != 4 { // 6 budget - 2 pinned
		t.Fatalf("flex stage got %d of the remaining budget", next[1])
	}
}

func TestProposeNeverExceedsBudget(t *testing.T) {
	// Tight budget, skewed shares: flooring each proportional share at
	// one worker must not overshoot MaxWorkers (3.5/0.3/0.2 ms shares
	// over a 4-worker budget previously allocated 3+1+1 = 5).
	f := newFake(1, 1, 1)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyPeriodic, MaxWorkers: 4})
	f.observe(0, 10, 3500*time.Microsecond)
	f.observe(1, 10, 300*time.Microsecond)
	f.observe(2, 10, 200*time.Microsecond)
	s.Sample(1)
	p, searched := s.Propose(s.Loads(adaptive.LoadLast, 1))
	if !searched || p == nil {
		t.Fatalf("no proposal: searched=%t", searched)
	}
	next := p.Ref.(Replicas)
	total := 0
	for _, w := range next {
		if w < 1 {
			t.Fatalf("stage starved: %v", next)
		}
		total += w
	}
	if total != 4 {
		t.Fatalf("allocation %v totals %d, want exactly the budget 4", next, total)
	}
	if next[0] != 2 {
		t.Fatalf("heavy stage got %d of the budget: %v", next[0], next)
	}
}

func TestProposeNilWhenAlreadyOptimal(t *testing.T) {
	f := newFake(4, 4)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyPeriodic, MaxWorkers: 8})
	f.observe(0, 10, 5*time.Millisecond)
	f.observe(1, 10, 5*time.Millisecond)
	s.Sample(1)
	p, searched := s.Propose(s.Loads(adaptive.LoadLast, 1))
	if !searched {
		t.Fatal("search should have run")
	}
	if p != nil {
		t.Fatalf("proposal for an already-apportioned vector: %v", p.Ref)
	}
}

func TestExpectedAnchorsReferenceToBaseline(t *testing.T) {
	f := newFake(2)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyReactive, MaxWorkers: 4})
	f.observe(0, 10, 10*time.Millisecond) // unloaded baseline: 100 items/s/worker
	s.Sample(1)
	f.observe(0, 10, 40*time.Millisecond) // contention inflates service 4×
	s.Sample(2)
	ref, hyst := s.Expected(s.Loads(adaptive.LoadLast, 2))
	if math.Abs(ref-200) > 1e-9 { // 2 workers / 10ms baseline
		t.Fatalf("reference = %v, want 200", ref)
	}
	if math.Abs(hyst-50) > 1e-9 { // 2 workers / 40ms current
		t.Fatalf("hysteresis base = %v, want 50", hyst)
	}
}

func TestThroughputWindowSemantics(t *testing.T) {
	f := newFake(1)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyReactive})
	if v := s.Throughput(1, 0); !math.IsNaN(v) {
		t.Fatalf("throughput with no completions = %v, want NaN", v)
	}
	f.observe(0, 10, time.Millisecond)
	s.Sample(1)
	f.observe(0, 20, time.Millisecond)
	// Window (1, 2]: 20 completions after the t=1 sample.
	if v := s.Throughput(1, 2); math.Abs(v-20) > 1e-9 {
		t.Fatalf("throughput = %v, want 20", v)
	}
	// A window longer than the run counts everything over the elapsed
	// time, not the full window — a young run is not a degraded run.
	if v := s.Throughput(4, 2); math.Abs(v-30.0/2) > 1e-9 {
		t.Fatalf("young-run throughput = %v, want 15", v)
	}
}

func TestOracleRejectedLive(t *testing.T) {
	p, err := pipeline.New(pipeline.Stage{Fn: func(ctx context.Context, v any) (any, error) { return v, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForPipeline(p, nil, Config{Policy: adaptive.PolicyOracle}); err == nil {
		t.Fatal("oracle accepted on the live substrate")
	}
	if _, err := ForPipeline(p, []StageInfo{{}, {}}, Config{}); err == nil {
		t.Fatal("stage-info length mismatch accepted")
	}
}

// TestLivePipelineGrowsBottleneck closes the loop end to end: a
// pipeline with one heavy stage at one worker must be grown by the
// controller while streaming, and ordered 1-for-1 delivery must hold
// throughout.
func TestLivePipelineGrowsBottleneck(t *testing.T) {
	sleepStage := func(d time.Duration) pipeline.Func {
		return func(ctx context.Context, v any) (any, error) {
			time.Sleep(d)
			return v, nil
		}
	}
	p, err := pipeline.New(
		pipeline.Stage{Name: "light", Fn: sleepStage(500 * time.Microsecond), Buffer: 8},
		pipeline.Stage{Name: "heavy", Fn: sleepStage(8 * time.Millisecond), Buffer: 8},
		pipeline.Stage{Name: "tail", Fn: sleepStage(500 * time.Microsecond), Buffer: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ForPipeline(p, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   40 * time.Millisecond,
		MaxWorkers: 12,
	})
	if err != nil {
		t.Fatal(err)
	}

	const items = 400
	in := make(chan any, items)
	for i := 0; i < items; i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)
	ctrl.Start()
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
	ctrl.Stop()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != items {
		t.Fatalf("completed %d of %d", seen, items)
	}
	st := ctrl.Stats()
	if st.Remaps == 0 {
		t.Fatalf("controller never resized: %+v", st)
	}
	reps := ctrl.Replicas()
	if reps[1] < 4 {
		t.Fatalf("heavy stage not grown: %v (events %+v)", reps, st.Events)
	}
}

// TestLiveFarmGrowsWorkers: the degenerate one-stage case — a farm is a
// one-stage pipeline — grows to the whole budget.
func TestLiveFarmGrowsWorkers(t *testing.T) {
	fm, err := pipeline.New(pipeline.Stage{Name: "farm", Fn: func(ctx context.Context, v any) (any, error) {
		time.Sleep(4 * time.Millisecond)
		return v, nil
	}, Replicas: 1, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := ForPipeline(fm, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   30 * time.Millisecond,
		MaxWorkers: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 200
	in := make(chan any, tasks)
	for i := 0; i < tasks; i++ {
		in <- i
	}
	close(in)
	out, errs := fm.Run(context.Background(), in)
	ctrl.Start()
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
	ctrl.Stop()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != tasks {
		t.Fatalf("completed %d of %d", seen, tasks)
	}
	if w := fm.Replicas(0); w != 6 {
		t.Fatalf("farm workers = %d, want the full budget 6", w)
	}
}
