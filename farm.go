package gridpipe

import (
	"context"
	"time"

	"gridpipe/internal/farm"
)

// Farm is the task-farm skeleton: a dynamic pool of workers applying
// one function to a stream of independent tasks. It is the standalone
// form of a replicated pipeline stage; use it when the application is a
// single parallel step rather than a chain.
type Farm struct {
	f *farm.Farm
}

// FarmOptions tune a Farm.
type FarmOptions struct {
	// Workers is the initial worker limit (default 1).
	Workers int
	// Buffer is the capacity, in tasks, of the queues before and after
	// the workers (default the worker count).
	Buffer int
	// Unordered delivers results in completion order instead of input
	// order.
	Unordered bool
}

// FarmStats is a snapshot of a farm's counters.
type FarmStats struct {
	Workers     int
	Done        int
	MeanService time.Duration
	MaxService  time.Duration
}

// NewFarm builds a farm over the worker function.
func NewFarm(fn StageFunc, opts FarmOptions) (*Farm, error) {
	f, err := farm.New(farm.Func(fn), farm.Options{
		Workers:   opts.Workers,
		Buffer:    opts.Buffer,
		Unordered: opts.Unordered,
	})
	if err != nil {
		return nil, err
	}
	return &Farm{f: f}, nil
}

// Process runs the farm over a slice of tasks.
func (f *Farm) Process(ctx context.Context, tasks []any) ([]any, error) {
	return f.f.Process(ctx, tasks)
}

// Run starts the farm over a stream; channel semantics match
// Pipeline.Run.
func (f *Farm) Run(ctx context.Context, tasks <-chan any) (<-chan any, <-chan error) {
	return f.f.Run(ctx, tasks)
}

// SetWorkers resizes the pool while running (minimum 1).
func (f *Farm) SetWorkers(n int) error { return f.f.SetWorkers(n) }

// Stats snapshots the farm's counters.
func (f *Farm) Stats() FarmStats {
	st := f.f.Stats()
	return FarmStats{
		Workers:     st.Workers,
		Done:        st.Done,
		MeanService: st.MeanService,
		MaxService:  st.MaxService,
	}
}
