package liveadapt

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/pipeline"
)

func identityFn(_ context.Context, v any) (any, error) { return v, nil }

// grainFake extends the scripted target with a grain surface whose
// "observed" throughput is a function the test controls: rate(grain)
// items per second, credited to the fake's one stage — the exit stage,
// whose count is the sensor's exit rate — between ticks.
type grainFake struct {
	*fakeTarget
	grain int
}

func (f *grainFake) Grain() int { return f.grain }
func (f *grainFake) SetGrain(n int) error {
	f.grain = n
	return nil
}

// refusingGrain is a grain surface that cannot be actuated.
type refusingGrain struct{ *grainFake }

func (refusingGrain) SetGrain(int) error { return errors.New("grain is fixed") }

// drive advances the walker through ticks spaced one cooldown apart,
// crediting completions at rate(grain) between ticks.
func drive(s *liveSub, f *grainFake, rate func(grain int) float64, from, ticks int) float64 {
	cool := s.cfg.Cooldown.Seconds()
	now := float64(from) * cool
	for i := 0; i < ticks; i++ {
		now += cool
		f.observe(0, int64(rate(f.grain)*cool), time.Millisecond)
		s.Sample(now)
	}
	return now
}

func TestGrainWalkClimbsUnderFixedOverhead(t *testing.T) {
	f := &grainFake{fakeTarget: newFake(1), grain: 1}
	s := subFor(t, f, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   time.Second,
		Cooldown:   2 * time.Second,
		AdaptGrain: true,
		MaxGrain:   64,
	})
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
	f := &grainFake{fakeTarget: newFake(1), grain: 1}
	s := subFor(t, f, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   time.Second,
		Cooldown:   2 * time.Second,
		AdaptGrain: true,
		MaxGrain:   256,
	})
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

func TestGrainWalkReArmsOnDegradation(t *testing.T) {
	f := &grainFake{fakeTarget: newFake(1), grain: 1}
	s := subFor(t, f, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   time.Second,
		Cooldown:   2 * time.Second,
		AdaptGrain: true,
		MaxGrain:   16,
	})
	rate := func(g int) float64 { return 1000 / (1 + 9/float64(g)) }
	drive(s, f, rate, 1, 30)
	if !s.grain.settled || f.grain != 16 {
		t.Fatalf("expected settled walk at the rail, got settled=%v grain=%d", s.grain.settled, f.grain)
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

// edgeFake scripts a two-boundary EdgeGrainTarget.
type edgeFake struct {
	*fakeTarget
	grains []int
}

func (f *edgeFake) Grain() int { return f.grains[0] }
func (f *edgeFake) SetGrain(n int) error {
	for b := range f.grains {
		f.grains[b] = n
	}
	return nil
}
func (f *edgeFake) GrainBoundaries() int { return len(f.grains) }
func (f *edgeFake) GrainAt(b int) int    { return f.grains[b] }
func (f *edgeFake) SetGrainAt(b, n int) error {
	f.grains[b] = n
	return nil
}

func TestGrainWalkCoordinateDescentPerBoundary(t *testing.T) {
	f := &edgeFake{fakeTarget: newFake(1), grains: []int{1, 1}}
	s := subFor(t, f, nil, Config{
		Policy:     adaptive.PolicyPeriodic,
		Interval:   time.Second,
		Cooldown:   2 * time.Second,
		AdaptGrain: true,
		MaxGrain:   64,
	})
	if s.grain.et == nil || s.grain.nb != 2 {
		t.Fatalf("walker should descend over 2 boundaries, got nb=%d", s.grain.nb)
	}
	// Boundary 0 amortizes a heavy per-batch overhead; coarsening
	// boundary 1 only costs throughput. The descent must coarsen the
	// first and keep the second fine.
	rate := func(int) float64 {
		r := 1000 / (1 + 9/float64(f.grains[0]))
		return r / (1 + 0.5*float64(f.grains[1]-1))
	}
	drive2 := func(from, ticks int) {
		cool := s.cfg.Cooldown.Seconds()
		now := float64(from) * cool
		for i := 0; i < ticks; i++ {
			now += cool
			f.observe(0, int64(rate(0)*cool), time.Millisecond)
			s.Sample(now)
		}
	}
	drive2(1, 80)
	if f.grains[0] < 32 {
		t.Fatalf("overhead-dominated boundary stuck at grain %d, want coarse (grains %v)", f.grains[0], f.grains)
	}
	if f.grains[1] != 1 {
		t.Fatalf("penalized boundary coarsened to %d, want 1 (grains %v)", f.grains[1], f.grains)
	}
	if !s.grain.settled {
		t.Fatal("descent should settle once every boundary yields nothing")
	}
}

func TestAdaptGrainConstructionChecks(t *testing.T) {
	// A plain fake has no grain surface.
	if _, err := newController(newFake(1), nil, Config{Policy: adaptive.PolicyPeriodic, AdaptGrain: true}); err == nil {
		t.Fatal("AdaptGrain over a grainless target should fail")
	}
	// A target that refuses its own grain → construction error.
	if _, err := newController(refusingGrain{&grainFake{fakeTarget: newFake(1), grain: 1}}, nil, Config{Policy: adaptive.PolicyPeriodic, AdaptGrain: true}); err == nil {
		t.Fatal("AdaptGrain over a target that rejects SetGrain should fail")
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
	if math.IsNaN(float64(ctrl.sub.grain.margin)) || ctrl.sub.grain.margin <= 1 {
		t.Fatalf("walker margin %v should exceed 1", ctrl.sub.grain.margin)
	}
}
