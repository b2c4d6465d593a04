package liveadapt

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/pipeline"
)

func identityFn(_ context.Context, v any) (any, error) { return v, nil }

// drive advances the walker through ticks spaced one cooldown apart,
// crediting completions at rate(grain) items per second to the fake's
// one stage — the exit stage, whose count is the sensor's exit rate —
// between ticks.
func drive(s *liveSub, f *fakeTarget, rate func(grain int) float64, from, ticks int) float64 {
	cool := s.cfg.cooldown().Seconds()
	now := float64(from) * cool
	for i := 0; i < ticks; i++ {
		now += cool
		f.observe(0, int64(rate(f.grain)*cool), time.Millisecond)
		s.Sample(now)
	}
	return now
}

// walkConfig ticks every second, so grain steps come 2 s apart.
var walkConfig = Config{Policy: adaptive.PolicyPeriodic, Interval: time.Second, AdaptGrain: true}

func TestGrainWalkClimbsUnderFixedOverhead(t *testing.T) {
	f := newFake(1)
	s := subFor(t, f, nil, walkConfig)
	if s.grain == nil {
		t.Fatal("AdaptGrain should arm the walker")
	}
	// Amortized-overhead throughput curve: work 1 ms/item, fixed
	// 9 ms/batch → rate(g) = 1000/(1 + 9/g) items/s, monotone in g.
	rate := func(g int) float64 { return 1000 / (1 + 9/float64(g)) }
	drive(s, f, rate, 1, 40)
	if f.grain < 32 {
		t.Fatalf("walker stopped at grain %d; monotone curve should reach the high rungs", f.grain)
	}
}

func TestGrainWalkRevertsHarmfulStep(t *testing.T) {
	f := newFake(1)
	s := subFor(t, f, nil, walkConfig)
	// Peaked curve: best at grain 8, collapsing beyond it.
	rate := func(g int) float64 {
		if g <= 8 {
			return 1000 / (1 + 7/float64(g))
		}
		return 200
	}
	drive(s, f, rate, 1, 40)
	if f.grain != 8 {
		t.Fatalf("walker settled at grain %d, want the peak 8", f.grain)
	}
	if !s.grain.settled {
		t.Fatal("walker should settle after reverting a harmful step")
	}
}

// A step that neither clears the margin nor costs throughput keeps its
// grain and ends the probing: on a flat curve the walk takes one
// doubling and settles there. While settled it tracks the best rate
// the grain delivers.
func TestGrainWalkKeepsStepWithinMargin(t *testing.T) {
	f := newFake(1)
	s := subFor(t, f, nil, walkConfig)
	now := drive(s, f, func(int) float64 { return 1000 }, 1, 20)
	if f.grain != 2 || !s.grain.settled {
		t.Fatalf("flat curve: grain %d settled=%v, want the kept step 2, settled", f.grain, s.grain.settled)
	}
	drive(s, f, func(int) float64 { return 1100 }, int(now/s.cfg.cooldown().Seconds()), 5)
	if f.grain != 2 || math.Abs(s.grain.rate-1100) > 1 {
		t.Fatalf("settled at grain %d with rate %v, want grain 2 and the 1100 high-water mark", f.grain, s.grain.rate)
	}
}

func TestGrainWalkReArmsOnDegradation(t *testing.T) {
	f := newFake(1)
	s := subFor(t, f, nil, walkConfig)
	// A large fixed overhead per batch: every doubling up to the
	// maxGrain rail clears the margin (the last one by 1.28×).
	rate := func(g int) float64 { return 1000 / (1 + 99/float64(g)) }
	drive(s, f, rate, 1, 30)
	if !s.grain.settled || f.grain != maxGrain {
		t.Fatalf("expected settled walk at the rail %d, got settled=%v grain=%d", maxGrain, s.grain.settled, f.grain)
	}
	// The workload shifts: throughput collapses below the settled
	// record and the optimum moves to per-item transfer. The walk must
	// re-arm and descend to the new optimum.
	shifted := func(g int) float64 { return 400 / (1 + 0.2*float64(g)) }
	drive(s, f, shifted, 31, 30)
	if f.grain > 2 {
		t.Fatalf("after the shift the walk sits at grain %d, want near 1", f.grain)
	}
}

func TestAdaptGrainConstructionChecks(t *testing.T) {
	// A static policy never ticks, so it cannot walk a grain.
	if _, err := newController(newFake(1), nil, Config{Policy: adaptive.PolicyStatic, AdaptGrain: true}); err == nil || !strings.Contains(err.Error(), "non-static") {
		t.Fatalf("AdaptGrain under PolicyStatic: error %v, want one naming non-static", err)
	}
	// A pipeline nobody configured starts the walk at grain 1.
	p, err := pipeline.New(pipeline.Stage{Name: "s", Fn: pipeline.Func(identityFn), Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl, err := ForPipeline(p, nil, Config{Policy: adaptive.PolicyPeriodic, AdaptGrain: true}); err != nil {
		t.Fatal(err)
	} else if ctrl.Grain() != 1 {
		t.Fatalf("Grain() = %d, want 1", ctrl.Grain())
	}
	// EnableBatch moves the starting point.
	p2, err := pipeline.New(pipeline.Stage{Name: "s", Fn: pipeline.Func(identityFn), Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.EnableBatch(4, 0); err != nil {
		t.Fatal(err)
	}
	ctrl, err := ForPipeline(p2, nil, Config{Policy: adaptive.PolicyPeriodic, AdaptGrain: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Grain() != 4 {
		t.Fatalf("Grain() = %d, want 4", ctrl.Grain())
	}
}
