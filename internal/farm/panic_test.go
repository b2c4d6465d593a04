package farm

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gridpipe/internal/pipeline"
)

// TestFarmPanicIsContained: a worker function that panics fails its own
// farm run with an error naming the task and carrying the stack, in
// both modes and at batch 1 and 8, while a bystander pipeline running
// concurrently on the same process-wide executor delivers every item.
// Uncontained, the panic unwinds a shared executor worker and ends the
// process.
func TestFarmPanicIsContained(t *testing.T) {
	watchGoroutines(t)
	const items, k = 2000, 137
	ident := func(_ context.Context, v any) (any, error) { return v, nil }
	for _, unordered := range []bool{false, true} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("unordered=%v/batch%d", unordered, batch), func(t *testing.T) {
				f := newBatched(t, func(_ context.Context, v any) (any, error) {
					if v.(int) == k {
						panic("kaboom")
					}
					return v, nil
				}, Options{Workers: 3, Unordered: unordered}, batch, 0)
				good, err := pipeline.New(
					pipeline.Stage{Name: "a", Fn: ident, Replicas: 2},
					pipeline.Stage{Name: "b", Fn: ident, Replicas: 2},
				)
				if err != nil {
					t.Fatal(err)
				}
				type result struct {
					out []any
					err error
				}
				bystander := make(chan result, 1)
				go func() {
					out, err := good.Process(context.Background(), ints(items))
					bystander <- result{out, err}
				}()

				_, err = f.Process(context.Background(), ints(items))
				if err == nil {
					t.Fatal("panicking farm reported no error")
				}
				// Both modes name the item by its sequence number.
				for _, want := range []string{fmt.Sprintf("item %d", k), "kaboom", "panic_test.go"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error lacks %q:\n%v", want, err)
					}
				}
				if got := f.Workers(); got != 3 {
					t.Errorf("Workers() = %d after the failed run, want 3", got)
				}

				r := <-bystander
				if r.err != nil {
					t.Fatalf("bystander pipeline: %v", r.err)
				}
				for i, v := range r.out {
					if v.(int) != i {
						t.Fatalf("bystander pipeline output %d: got %v", i, v)
					}
				}
			})
		}
	}
}
