// Package farm implements the task-farm skeleton, the pipeline's
// sibling pattern in the eSkel family and the building block behind
// stage replication: a dynamic pool of workers applies one function to
// a stream of independent tasks.
//
// The farm preserves input order on request (the default matches the
// pipeline's 1-for-1 discipline) and its worker count is resizable at
// run time — the live counterpart of the adaptivity engine's replicate
// action, exposed as a standalone skeleton so applications that are a
// single parallel stage need not wrap themselves in a pipeline.
//
// Like the pipeline, the unordered hot path runs its tasks on the shared
// work-stealing executor (no goroutine per task; the worker count is an
// in-flight limit) and records service times in an atomic meter (no
// mutex per task). Ordered mode delegates to a one-stage pipeline — the
// degenerate chain of the stage-graph runtime (internal/topo), so a
// farm is literally a single graph node wired source→stage→sink.
package farm

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/ring"
)

// Func is the worker computation. It must be safe for concurrent
// invocation.
type Func func(ctx context.Context, v any) (any, error)

// taskSlab is a pooled batch of tasks in flight to a worker. It is a
// distinct unexported pointer type so the worker can tell slabs from
// single tasks in the shared any-typed pool channel: user code cannot
// construct a value of this type, so the assertion never misfires on
// a task that happens to be a *[]any.
type taskSlab *[]any

// unit is one completed result (or a bare bookkeeping marker) queued
// from an executor task to the farm's drainer: send marks a deliverable
// value, release marks the last unit of its submission — the drainer
// frees the limiter token there, so backpressure releases only when the
// consumer has actually accepted the work.
type unit struct {
	v       any
	send    bool
	release bool
}

// unitQueue is the unordered counterpart of pipeline's result sink:
// executor tasks put completed units without ever blocking, the drainer
// pulls them in completion order via next, blocking there instead.
type unitQueue struct {
	mu     sync.Mutex
	q      ring.FIFO[unit]
	closed bool
	notify chan struct{}
}

func (s *unitQueue) put(u unit) {
	s.mu.Lock()
	s.q.Push(u)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// close marks the stream complete; call only after every outstanding
// put has happened.
func (s *unitQueue) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next blocks until a unit is available (or the queue is closed and
// drained).
func (s *unitQueue) next() (unit, bool) {
	for {
		s.mu.Lock()
		if u, ok := s.q.Pop(); ok {
			s.mu.Unlock()
			return u, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return unit{}, false
		}
		<-s.notify
	}
}

// Options tune a Farm.
type Options struct {
	// Workers is the initial worker limit (default 1).
	Workers int
	// Buffer is the input buffer capacity (default the worker count).
	Buffer int
	// Unordered delivers results as they complete instead of in input
	// order. Ordered delivery (the default) matches Pipeline1for1.
	Unordered bool
	// Batch is the number of tasks crossing the farm's dispatch
	// boundary together (default 1 = per-task). Larger batches
	// amortise the limiter and channel synchronisation over Batch
	// tasks; SetBatch adjusts it while running.
	Batch int
	// Linger bounds how long a partial batch may wait for more input
	// before being dispatched anyway (default pipeline.DefaultLinger;
	// only meaningful with Batch > 1).
	Linger time.Duration
}

// Stats is a snapshot of the farm's counters.
type Stats struct {
	Workers     int
	Done        int
	MeanService time.Duration
	MaxService  time.Duration
}

// Farm is a runnable task farm. Create with New; single-use like the
// pipeline skeleton.
type Farm struct {
	fn   Func
	opts Options

	mu    sync.Mutex
	ran   bool
	pl    *pipeline.Pipeline // ordered mode delegates to a 1-stage pipeline
	meter conc.Meter         // unordered-mode service times
	limit *conc.Limiter
	batch atomic.Int64 // current dispatch batch size (unordered mode)
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
	if opts.Batch < 0 {
		return nil, fmt.Errorf("farm: negative batch %d", opts.Batch)
	}
	if opts.Batch == 0 {
		opts.Batch = 1
	}
	if opts.Linger <= 0 {
		opts.Linger = pipeline.DefaultLinger
	}
	f := &Farm{fn: fn, opts: opts}
	f.batch.Store(int64(opts.Batch))
	return f, nil
}

// Run starts the farm over the input stream. Semantics mirror
// pipeline.Pipeline.Run: the output channel closes after the inputs
// drain (or on failure/cancellation); the error channel carries at most
// one error.
func (f *Farm) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error) {
	f.mu.Lock()
	if f.ran {
		f.mu.Unlock()
		panic("farm: Run called twice")
	}
	f.ran = true

	if !f.opts.Unordered {
		pl, err := pipeline.New(pipeline.Stage{
			Name:     "farm",
			Fn:       pipeline.Func(f.fn),
			Replicas: f.opts.Workers,
			Buffer:   f.opts.Buffer,
		})
		if err != nil {
			// New validated everything that pipeline.New checks.
			panic(fmt.Sprintf("farm: internal construction error: %v", err))
		}
		if err := pl.EnableBatch(f.opts.Batch, f.opts.Linger); err != nil {
			panic(fmt.Sprintf("farm: internal construction error: %v", err))
		}
		f.pl = pl
		f.mu.Unlock()
		return pl.Run(ctx, inputs)
	}

	// Unordered mode. The option fields are captured under the lock: a
	// concurrent SetWorkers may rewrite opts.Workers the instant Run
	// releases it.
	f.limit = conc.NewLimiter(f.opts.Workers)
	outBuf, linger := f.opts.Buffer, f.opts.Linger
	f.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	out := make(chan any, outBuf)
	errs := make(chan error, 1)
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	// Tasks cross the dispatch boundary either singly (batch 1, the
	// default — no slab machinery on the per-task fast path) or in
	// pooled slabs of up to the current batch size (SetBatch adjusts
	// it live), flushed early when the oldest queued task has
	// lingered. A submission pays the limiter and the executor handoff
	// once and records its service in one RecordN. Slabs travel as the
	// unexported pointer type taskSlab, which no user task can alias,
	// so the task's type switch is unambiguous.
	var slabs sync.Pool
	recycle := func(slab taskSlab) {
		clear(*slab)
		*slab = (*slab)[:0]
		slabs.Put(slab)
	}

	// Submissions run as tasks on the shared work-stealing executor.
	// Tasks never block (see internal/conc/steal) — results land in a
	// completion-order queue and the farm's drainer goroutine owns the
	// blocking sends plus the limiter release, so a slow consumer
	// backpressures the dispatcher without parking a shared worker.
	ex := steal.Default()
	var inFlight sync.WaitGroup
	q := &unitQueue{notify: make(chan struct{}, 1)}
	drainDone := make(chan struct{})
	go func() { // drainer
		defer close(drainDone)
		dead := false // cancellation truncates the stream
		for {
			u, ok := q.next()
			if !ok {
				return
			}
			if u.send && !dead {
				select {
				case out <- u.v:
				case <-ctx.Done():
					dead = true
				}
			}
			if u.release {
				f.limit.Release()
				inFlight.Done()
			}
		}
	}()
	// call applies the worker function to one task. A panic becomes the
	// task's error (naming the task; the stack rides along) and fails
	// this run like any other: left to unwind, it would take down the
	// executor worker it happened on, and with it the process every other
	// skeleton shares.
	call := func(v any) (r any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("task %v: panic: %v\n%s", v, p, debug.Stack())
			}
		}()
		return f.fn(ctx, v)
	}
	taskFn := func(x any) {
		t0 := time.Now()
		slab, ok := x.(taskSlab)
		if !ok {
			r, err := call(x)
			f.meter.RecordN(1, time.Since(t0))
			if err != nil {
				fail(fmt.Errorf("farm: %w", err))
				q.put(unit{release: true})
				return
			}
			q.put(unit{v: r, send: true, release: true})
			return
		}
		done, n := 0, len(*slab)
		for i, v := range *slab {
			r, err := call(v)
			done++
			if err != nil {
				f.meter.RecordN(int64(done), time.Since(t0))
				fail(fmt.Errorf("farm: %w", err))
				recycle(slab)
				q.put(unit{release: true})
				return
			}
			q.put(unit{v: r, send: true, release: i == n-1})
		}
		f.meter.RecordN(int64(done), time.Since(t0))
		recycle(slab)
	}
	// submit hands one task (or slab) to the executor.
	submit := func(x any) {
		f.limit.Acquire()
		inFlight.Add(1)
		ex.Submit(steal.Task{Fn: taskFn, Arg: x})
	}
	go func() {
		defer func() {
			// Wait for the in-flight work and the drainer before the
			// output closes.
			inFlight.Wait()
			q.close()
			<-drainDone
			if firstErr == nil && ctx.Err() != nil {
				firstErr = ctx.Err()
			}
			if firstErr != nil {
				errs <- firstErr
			}
			close(errs)
			close(out)
			cancel()
		}()
		var cur taskSlab
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		var timerC <-chan time.Time
		flush := func() {
			submit(cur)
			cur = nil
			timerC = nil
		}
		for {
			// No slab open: the common state, and the whole loop at
			// batch 1. A two-case select (no timer arm) keeps the
			// per-task fast path as cheap as an unbatched dispatcher.
			if cur == nil {
				select {
				case v, ok := <-inputs:
					if !ok {
						return
					}
					batch := int(f.batch.Load())
					if batch <= 1 {
						submit(v)
						continue
					}
					if p, _ := slabs.Get().(taskSlab); p != nil {
						cur = p
					} else {
						cur = taskSlab(new([]any))
						*cur = make([]any, 0, 8)
					}
					*cur = append(*cur, v)
					// The linger clock anchors to the slab's oldest
					// task, which just arrived (batch > 1 here, so the
					// slab cannot already be full).
					timer.Reset(linger)
					timerC = timer.C
				case <-ctx.Done():
					return
				}
				continue
			}
			select {
			case v, ok := <-inputs:
				if !ok {
					flush()
					return
				}
				*cur = append(*cur, v)
				if len(*cur) >= int(f.batch.Load()) {
					timer.Stop()
					flush()
				}
			case <-timerC:
				flush()
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, errs
}

// Process runs the farm over a slice. In ordered mode the outputs align
// with the inputs; in unordered mode they arrive in completion order.
func (f *Farm) Process(ctx context.Context, inputs []any) ([]any, error) {
	return pipeline.Collect(ctx, inputs, func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
		out, errs := f.Run(ctx, in)
		return out, errs, nil
	})
}

// SetBatch changes the dispatch batch size (minimum 1); callable while
// running — the grain counterpart of SetWorkers, used by the live
// adaptive controller's granularity actuator.
func (f *Farm) SetBatch(n int) error {
	if n < 1 {
		return fmt.Errorf("farm: SetBatch(%d) below 1", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opts.Batch = n
	if f.pl != nil {
		return f.pl.SetGrain(n)
	}
	f.batch.Store(int64(n))
	return nil
}

// Batch returns the current dispatch batch size.
func (f *Farm) Batch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pl != nil {
		return f.pl.Grain()
	}
	return int(f.batch.Load())
}

// SetWorkers resizes the pool (minimum 1); callable while running.
func (f *Farm) SetWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("farm: SetWorkers(%d) below 1", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opts.Workers = n
	if f.pl != nil {
		return f.pl.SetReplicas(0, n)
	}
	if f.limit != nil {
		f.limit.SetLimit(n)
	}
	return nil
}

// Workers returns the current worker limit.
func (f *Farm) Workers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pl != nil {
		return f.pl.Replicas(0)
	}
	if f.limit != nil {
		return f.limit.Limit()
	}
	return f.opts.Workers
}

// Totals returns the cumulative completed-task count and summed
// service time (see conc.Meter.Totals); the live adaptive sensor
// diffs two readings for windowed means.
func (f *Farm) Totals() (count int64, sum time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pl != nil {
		return f.pl.StageTotals(0)
	}
	return f.meter.Totals()
}

// Stats snapshots the farm's counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pl != nil {
		st := f.pl.Stats()[0]
		return Stats{
			Workers:     st.Replicas,
			Done:        st.Count,
			MeanService: st.MeanService,
			MaxService:  st.MaxService,
		}
	}
	count, mean, max := f.meter.Snapshot()
	return Stats{
		Workers:     f.opts.Workers,
		Done:        count,
		MeanService: mean,
		MaxService:  max,
	}
}
