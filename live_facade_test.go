package gridpipe

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// sleeper returns a stage function sleeping d per item.
func sleeper(d time.Duration) StageFunc {
	return func(ctx context.Context, v any) (any, error) {
		time.Sleep(d)
		return v, nil
	}
}

func TestWithLiveAdaptiveValidates(t *testing.T) {
	mk := func() *Pipeline {
		p, err := New(
			Stage("a", sleeper(time.Microsecond), Weight(0.01)),
			Stage("b", sleeper(time.Microsecond), Weight(0.1), Replicable()),
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := mk().WithLiveAdaptive("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if err := mk().WithLiveAdaptive(PolicyOracle); err == nil {
		t.Fatal("oracle accepted for live adaptation")
	}
	p := mk()
	if _, err := p.Process(context.Background(), []any{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.WithLiveAdaptive(PolicyReactive); err == nil {
		t.Fatal("WithLiveAdaptive accepted after Run")
	}
}

// TestWithLiveAdaptiveGrowsBottleneck drives the facade end to end:
// ordered results, and the heavy replicable stage grown by the live
// controller while streaming.
func TestWithLiveAdaptiveGrowsBottleneck(t *testing.T) {
	p, err := New(
		Stage("light", sleeper(300*time.Microsecond), Weight(0.01), Buffer(8)),
		Stage("heavy", sleeper(6*time.Millisecond), Weight(0.01), Replicable(), Buffer(8)),
		Stage("tail", sleeper(300*time.Microsecond), Weight(0.01), Buffer(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithLiveAdaptive(PolicyPeriodic, LiveAdaptiveOptions{
		Interval:   30 * time.Millisecond,
		MaxWorkers: 10,
	}); err != nil {
		t.Fatal(err)
	}
	inputs := make([]any, 300)
	for i := range inputs {
		inputs[i] = i
	}
	out, err := p.Process(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("out of order: got %v at %d", v, i)
		}
	}
	rep := p.LiveAdaptiveReport()
	if rep.Ticks == 0 {
		t.Fatalf("controller never ticked: %+v", rep)
	}
	if rep.Resizes == 0 {
		t.Fatalf("controller never resized: %+v", rep)
	}
	// All headroom should have gone to the heavy stage (the only
	// replicable one).
	if rep.Replicas[1] < 4 {
		t.Fatalf("heavy stage workers = %d, want ≥4 (%+v)", rep.Replicas[1], rep)
	}
	if rep.Replicas[0] != 1 || rep.Replicas[2] != 1 {
		t.Fatalf("non-replicable stages resized: %+v", rep.Replicas)
	}
	if len(rep.Events) == 0 || rep.Events[0].To == "" {
		t.Fatalf("events not rendered: %+v", rep.Events)
	}
}

// TestWithLiveAdaptiveStaticIsInert: the static policy must neither
// tick nor resize — the F11 baseline.
func TestWithLiveAdaptiveStaticIsInert(t *testing.T) {
	p, err := New(
		Stage("a", sleeper(100*time.Microsecond), Weight(0.01), Replicable(), Buffer(4)),
		Stage("b", sleeper(time.Millisecond), Weight(0.1), Replicable(), Buffer(4)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithLiveAdaptive(PolicyStatic, LiveAdaptiveOptions{Interval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	inputs := make([]any, 50)
	for i := range inputs {
		inputs[i] = i
	}
	if _, err := p.Process(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	rep := p.LiveAdaptiveReport()
	if rep.Ticks != 0 || rep.Resizes != 0 {
		t.Fatalf("static controller acted: %+v", rep)
	}
	if rep.Replicas[0] != 1 || rep.Replicas[1] != 1 {
		t.Fatalf("static run resized: %+v", rep.Replicas)
	}
}

// TestLiveAdaptiveRunAddsOnlyTheTicker: arming the controller puts no
// goroutine and no hop between the pipeline and its consumer — a run at
// rest holds what an unarmed one holds, plus the controller's ticker.
func TestLiveAdaptiveRunAddsOnlyTheTicker(t *testing.T) {
	held := func(arm bool) int {
		p, err := New(Stage("a", sleeper(time.Microsecond), Weight(0.1), Replicable()))
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			if err := p.WithLiveAdaptive(PolicyPeriodic); err != nil {
				t.Fatal(err)
			}
		}
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		out, errs, err := p.Run(ctx, make(chan any)) // no input: the run parks
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine() - before
		cancel()
		for range out {
		}
		<-errs
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	held(false) // starts the process-wide executor, so it is in the baseline
	if plain, armed := held(false), held(true); armed != plain+1 {
		t.Errorf("an armed run holds %d goroutines at rest, an unarmed one %d; want one more (the ticker)", armed, plain)
	}
}

// TestLiveAdaptiveProcessFailureLeavesNoGoroutine: the adaptive branch
// of Process feeds its own input channel; when a stage fails, the
// feeder and the controller must both exit with the run instead of
// blocking on a pipeline that stopped reading.
func TestLiveAdaptiveProcessFailureLeavesNoGoroutine(t *testing.T) {
	boom := errors.New("boom")
	inputs := make([]any, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	run := func() {
		p, err := New(
			Stage("a", sleeper(time.Microsecond), Weight(0.01)),
			Stage("fails", func(_ context.Context, v any) (any, error) {
				if v.(int) == 3 {
					return nil, boom
				}
				return v, nil
			}, Weight(0.1), Replicable()),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WithLiveAdaptive(PolicyPeriodic); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Process(context.Background(), inputs); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	run() // starts the process-wide executor, so it is in the baseline
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		run()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before the failing runs", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
