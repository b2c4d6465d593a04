package liveadapt

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
)

// fakeTarget is a scripted Target for exercising the sensor/actuator
// without wall time.
type fakeTarget struct {
	mu     sync.Mutex
	reps   []int
	counts []int64
	sums   []time.Duration
	grain  int
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

func (f *fakeTarget) Grain() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.grain
}
func (f *fakeTarget) SetGrain(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.grain = n
	return nil
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
		grain:  1,
	}
}

func subFor(t *testing.T, target Target, stages []model.StageSpec, cfg Config) *liveSub {
	t.Helper()
	ctrl, err := newController(target, stages, cfg)
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
	info := []model.StageSpec{
		{Name: "pin", Work: 1, Replicable: false},
		{Name: "flex", Work: 1, Replicable: true},
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
	if _, err := ForPipeline(p, []model.StageSpec{{}, {}}, Config{}); err == nil {
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
	ctrl.Start()
	out, errs := p.Run(context.Background(), in)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
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
// one-stage pipeline — grows to the whole budget, and the controller
// stops when the run ends.
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
	ctrl.Start()
	out, errs := fm.Run(context.Background(), in)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != tasks {
		t.Fatalf("completed %d of %d", seen, tasks)
	}
	if w := fm.Replicas(0); w != 6 {
		t.Fatalf("farm workers = %d, want the full budget 6", w)
	}
	// ForPipeline stopped the controller with the run.
	ticks := ctrl.Stats().Ticks
	time.Sleep(100 * time.Millisecond)
	if got := ctrl.Stats().Ticks; got != ticks {
		t.Fatalf("controller ticked %d times after the run ended", got-ticks)
	}
}

// TestForPipelineLeavesSpecAlone pins that the controller's Work
// default (0 → 1) is applied to its own copy: the stages are the
// caller's model spec, often a bundled app's or the facade's.
func TestForPipelineLeavesSpecAlone(t *testing.T) {
	p, err := pipeline.New(pipeline.Stage{Fn: func(ctx context.Context, v any) (any, error) { return v, nil }})
	if err != nil {
		t.Fatal(err)
	}
	stages := []model.StageSpec{{Name: "s", Replicable: true}}
	ctrl, err := ForPipeline(p, stages, Config{Policy: adaptive.PolicyPeriodic})
	if err != nil {
		t.Fatal(err)
	}
	if stages[0].Work != 0 || ctrl.sub.stages[0].Work != 1 {
		t.Fatalf("caller's Work %v (want 0), controller's %v (want 1)", stages[0].Work, ctrl.sub.stages[0].Work)
	}
}

// Sample turns meter diffs into per-stage service estimates: a service
// time below the clock's resolution reads as 1 ns, a stage never
// observed has no predicted load, and Slowdowns divides each estimate
// by the stage's nominal work.
func TestSampleLoadsAndSlowdowns(t *testing.T) {
	f := newFake(1, 1, 1)
	stages := []model.StageSpec{
		{Name: "a", Work: 0.002, Replicable: true},
		{Name: "b", Work: 0.001, Replicable: true},
		{Name: "c", Work: 0.001, Replicable: true},
	}
	s := subFor(t, f, stages, Config{Policy: adaptive.PolicyPredictive, MaxWorkers: 8})
	f.observe(0, 10, 4*time.Millisecond)
	f.observe(1, 10, 0)
	s.Sample(1)
	if loads := s.Loads(adaptive.LoadPredicted, 1); loads[1] != 1e-9 || !math.IsNaN(loads[2]) {
		t.Errorf("predicted loads %v, want 1e-9 for the instant stage and NaN for the unobserved one", loads)
	}
	if sl := s.Slowdowns(); math.Abs(sl[0]-2) > 1e-9 || !math.IsNaN(sl[2]) {
		t.Errorf("slowdowns %v, want 2 for the stage at twice its work and NaN for the unobserved one", sl)
	}
}

// A reactive controller's estimators track only the last measurement
// (monitor builds them for the policy's load mode), so its Loads are
// the last windowed means: a stage that slows reads its new mean at
// once, and an unobserved stage NaN. A stage whose mean alternates is
// one a battery would forecast with a mean, not the last value.
func TestReactiveLoadsAreLastWindowedMeans(t *testing.T) {
	f := newFake(1, 1, 1)
	s := subFor(t, f, nil, Config{Policy: adaptive.PolicyReactive, MaxWorkers: 8})
	for tick, d := range []time.Duration{2, 4, 2, 4, 2, 4, 2, 4, 8} {
		d *= time.Millisecond
		f.observe(0, 10, d)
		f.observe(1, 5, time.Millisecond)
		s.Sample(float64(tick + 1))
		loads := s.Loads(adaptive.LoadLast, float64(tick+1))
		if math.Abs(loads[0]-d.Seconds()) > 1e-12 || math.Abs(loads[1]-0.001) > 1e-12 || !math.IsNaN(loads[2]) {
			t.Fatalf("tick %d: loads %v, want [%v 0.001 NaN]", tick+1, loads, d.Seconds())
		}
		// No battery behind them: even the forecast is the last mean.
		if p := s.ests[0].Predicted(0, math.Inf(1)); math.Abs(p-d.Seconds()) > 1e-12 {
			t.Fatalf("tick %d: stage 0 forecasts %v, want its last mean %v", tick+1, p, d.Seconds())
		}
	}
}

// An adaptive controller needs a replicable stage; Grain reports the
// target's grain.
func TestControllerConstructionAndGrain(t *testing.T) {
	if _, err := newController(newFake(1), []model.StageSpec{{Name: "fixed"}}, Config{Policy: adaptive.PolicyReactive}); err == nil {
		t.Error("a reactive controller over no replicable stage was built")
	}
	ctrl, err := newController(newFake(1), nil, Config{Policy: adaptive.PolicyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if g := ctrl.Grain(); g != 1 {
		t.Errorf("grain %d on a target at grain 1", g)
	}
}
