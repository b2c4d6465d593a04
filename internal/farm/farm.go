// Package farm is the task-farm skeleton, the pipeline's sibling pattern
// in the eSkel family and the building block behind stage replication: a
// resizable pool of workers applies one function to a stream of
// independent tasks.
//
// A replicated stage is a farm, so the farm is a one-stage pipeline — the
// degenerate chain of the stage-graph runtime (internal/pipeline), wired
// source→stage→sink — and this package is no more than that pipeline under
// the farm's names: the worker count is the stage's replica limit, resized
// live by SetWorkers (the counterpart of the adaptivity engine's replicate
// action), and Unordered asks the stage's reorder ring to number slabs by
// completion instead of by input position. Either way the tasks run on the
// shared work-stealing executor behind the pipeline's head, token, room,
// cancel and panic rules; there is no second data path here.
package farm

import (
	"context"
	"fmt"
	"time"

	"gridpipe/internal/pipeline"
)

// Func is the worker computation. It must be safe for concurrent
// invocation.
type Func func(ctx context.Context, v any) (any, error)

// Options tune a Farm.
type Options struct {
	// Workers is the initial worker limit (default 1).
	Workers int
	// Buffer is the capacity, in tasks, of the queues before and after
	// the workers (default the worker count).
	Buffer int
	// Unordered delivers results as they complete instead of in input
	// order. Ordered delivery (the default) matches Pipeline1for1.
	Unordered bool
}

// Stats is a snapshot of the farm's counters.
type Stats struct {
	Workers     int
	Done        int
	MeanService time.Duration
	MaxService  time.Duration
}

// Farm is a runnable task farm. Create with New; single-use like the
// pipeline it wraps.
type Farm struct {
	pl *pipeline.Pipeline
}

// New validates and builds a farm.
func New(fn Func, opts Options) (*Farm, error) {
	if fn == nil {
		return nil, fmt.Errorf("farm: nil function")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Buffer <= 0 {
		opts.Buffer = opts.Workers
	}
	pl, err := pipeline.New(pipeline.Stage{
		Name:      "farm",
		Fn:        pipeline.Func(fn),
		Replicas:  opts.Workers,
		Buffer:    opts.Buffer,
		Unordered: opts.Unordered,
	})
	if err != nil {
		return nil, err
	}
	return &Farm{pl: pl}, nil
}

// Run starts the farm over the input stream, with the semantics of
// pipeline.Pipeline.Run: the output channel closes after the inputs
// drain (or on failure or cancellation), the error channel carries at
// most one error — a failed task's names it by its position in the
// input — and a second Run panics.
func (f *Farm) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error) {
	return f.pl.Run(ctx, inputs)
}

// Process runs the farm over a slice. In ordered mode the outputs align
// with the inputs; in unordered mode they arrive in completion order.
func (f *Farm) Process(ctx context.Context, inputs []any) ([]any, error) {
	return f.pl.Process(ctx, inputs)
}

// SetWorkers resizes the pool (minimum 1); callable while running.
func (f *Farm) SetWorkers(n int) error { return f.pl.SetReplicas(0, n) }

// Workers returns the current worker limit.
func (f *Farm) Workers() int { return f.pl.Replicas(0) }

// Stats snapshots the farm's counters.
func (f *Farm) Stats() Stats {
	st := f.pl.Stats()[0]
	return Stats{
		Workers:     st.Replicas,
		Done:        st.Count,
		MeanService: st.MeanService,
		MaxService:  st.MaxService,
	}
}
