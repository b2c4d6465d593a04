package farm

import (
	"context"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go under the race build tag.
var raceEnabled bool

// The unordered farm allocates per run (channels, the dataflow state, the
// result slice), never per task: 8 workers, an identity function,
// pre-boxed inputs so caller-side boxing is not counted; a run's whole
// malloc count over its tasks must stay under 0.01.
func TestUnorderedAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, so pooled slabs are re-allocated")
	}
	inputs := make([]any, 100_000)
	ident := func(ctx context.Context, v any) (any, error) { return v, nil }
	run := func() { // a farm runs once: build it each time
		f, err := New(ident, Options{Workers: 8, Buffer: 64, Unordered: true})
		if err == nil {
			_, err = f.Process(context.Background(), inputs)
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
		t.Fatalf("%d allocations over %d tasks = %.4f per task, want < 0.01", mallocs, len(inputs), per)
	}
}
