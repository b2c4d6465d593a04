package pipeline

import (
	"context"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go under the race build tag.
var raceEnabled bool

// The replicated-stage boundary allocates per run (channels, the
// dataflow state, rings, the first slabs, the result slice), never per
// item: slabs are pooled and a stage task is a value. One identity
// stage, 8 replicas, pre-boxed items so caller-side boxing is not
// counted; a run's whole malloc count over its items must stay under
// 0.01 (one allocation per 64-item slab would already read 0.016).
func TestBoundaryAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, so pooled slabs are re-allocated")
	}
	inputs := make([]any, 200_000)
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	for _, grain := range []int{1, 64} {
		run := func() { // a pipeline runs once: build it each time
			p, err := New(Stage{Name: "r", Fn: ident, Replicas: 8, Buffer: 64})
			if err == nil && grain > 1 {
				err = p.EnableBatch(grain, 0)
			}
			if err == nil {
				_, err = p.Process(context.Background(), inputs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // starts the process-wide executor's workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		if per := float64(mallocs) / float64(len(inputs)); per >= 0.01 {
			t.Errorf("grain %d: %d allocations over %d items = %.4f per item, want < 0.01",
				grain, mallocs, len(inputs), per)
		}
	}
}
