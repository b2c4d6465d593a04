// Package pipeline is the live (goroutine/channel) implementation of
// the pipeline skeleton: the same 1-for-1 discipline the simulator
// models, executing real Go functions on the local machine.
//
// Semantics (eSkel Pipeline1for1, generalised to a stage graph):
//   - every input passes through every stage (along every edge of the
//     stage graph — see internal/topo);
//   - each stage produces exactly one output per input; a stage with
//     several out-edges broadcasts its output along each (a split), a
//     stage with several in-edges receives a []any holding one part
//     per in-edge, in edge order (a merge);
//   - outputs are delivered in input order, even when a stage is
//     replicated: each edge carries an index-ordered stream of slabs,
//     restored by the producing stage's reorder ring, so a merge joins
//     its in-streams by zipping them — ordering survives fan-in by
//     construction.
//
// There is one data path. The head batcher packs inputs into pooled
// slabs of up to grain items (grain 1, the default, is a slab of one);
// each stage's dispatcher takes an in-flight token from the stage's
// limiter per slab and submits the slab as a task to the shared
// work-stealing executor (internal/conc/steal); the task applies the
// stage function to the slab's items and puts the result into the
// stage's sink without blocking; the stage's drainer goroutine pulls
// slabs from the sink in index order, sends them downstream, and
// returns the token. Replica counts are therefore in-flight limits, not
// goroutine counts: SetReplicas adjusts a stage's limit while the
// pipeline runs (the live counterpart of the simulator's replicate
// action) and SetGrain adjusts the slab size (batch.go).
//
// The hot path is allocation-free in steady state: slabs are pooled and
// a stage that solely owns the slab it received writes its results into
// it, the reorder buffer is a sequence-indexed ring rather than a map,
// and service times accumulate in atomic meters rather than under a
// mutex. Only graphs with actual splits/merges pay the zip/broadcast
// goroutines (and one []any per item per merge boundary).
package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/topo"
)

// Func is the computation of one stage. It must be safe for concurrent
// invocation when the stage is replicated.
type Func func(ctx context.Context, v any) (any, error)

// Stage describes one stage of a live pipeline.
type Stage struct {
	// Name labels the stage in stats; defaults to "stageN".
	Name string
	// Fn is the stage computation (required).
	Fn Func
	// Replicas is the initial worker limit (default 1).
	Replicas int
	// Buffer is the capacity of the stage's input channel (default 1),
	// the bounded inter-stage buffer of the skeleton.
	Buffer int
}

// StageStats is a snapshot of one stage's live measurements.
type StageStats struct {
	Name        string
	Count       int
	Replicas    int
	MeanService time.Duration
	MaxService  time.Duration
}

// Pipeline is a runnable live pipeline. Create with New (a linear
// chain) or NewGraph (an arbitrary stage DAG); a Pipeline is
// single-use: Run (or Process) may be called once.
type Pipeline struct {
	stages []Stage
	edges  []topo.Edge // data-flow arcs; a chain for New
	limits []*conc.Limiter
	meters []*conc.Meter
	ran    bool
	mu     sync.Mutex

	// Slab state (see batch.go). grains holds one atomic grain per
	// boundary (0 = head, 1+ei = edge ei) and linger the head's flush
	// timeout in nanoseconds; both are read while the pipeline runs, so
	// SetGrain/SetGrainAt actuate live.
	grains []atomic.Int64
	linger atomic.Int64
	slabs  sync.Pool // *batch

	// Per-boundary grain state (see edgegrain.go). Non-nil regrain means
	// EnableBatchEdges: it marks the bridge edges whose sinks re-slab,
	// and actBounds lists them as the independently walkable boundaries.
	regrain   []bool
	actBounds []int

	// exec overrides the process-wide executor stage tasks run on.
	exec *steal.Executor
}

// UseExecutor points the pipeline at a specific work-stealing executor
// (tests and benchmarks isolate worker sets this way). Call before
// Run; nil reselects the process-wide default.
func (p *Pipeline) UseExecutor(e *steal.Executor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exec = e
}

// New validates the stage list and builds a linear pipeline: stage i
// feeds stage i+1.
func New(stages ...Stage) (*Pipeline, error) {
	var edges []topo.Edge
	for i := 0; i+1 < len(stages); i++ {
		edges = append(edges, topo.Edge{From: i, To: i + 1})
	}
	return NewGraph(stages, edges)
}

// NewGraph validates the stages and edges and builds a stage-graph
// pipeline. The edge set must satisfy the internal/topo structural
// contract: stages listed in topological order (From < To on every
// edge), one entry (stage 0), one exit (the last stage), every stage
// on an entry→exit path. A stage with several in-edges receives a
// []any of parts in in-edge order.
func NewGraph(stages []Stage, edges []topo.Edge) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	p := &Pipeline{
		stages: make([]Stage, len(stages)),
		edges:  append([]topo.Edge(nil), edges...),
		grains: make([]atomic.Int64, 1+len(edges)),
	}
	for b := range p.grains {
		p.grains[b].Store(1)
	}
	p.linger.Store(int64(DefaultLinger))
	copy(p.stages, stages)
	tg := &topo.Graph{Stages: make([]topo.Stage, len(stages)), Edges: p.edges}
	for i := range p.stages {
		st := &p.stages[i]
		if st.Fn == nil {
			return nil, fmt.Errorf("pipeline: stage %d has no function", i)
		}
		if st.Name == "" {
			st.Name = fmt.Sprintf("stage%d", i)
		}
		if st.Replicas <= 0 {
			st.Replicas = 1
		}
		if st.Buffer <= 0 {
			st.Buffer = 1
		}
		tg.Stages[i] = topo.Stage{Name: st.Name}
		p.limits = append(p.limits, conc.NewLimiter(st.Replicas))
		p.meters = append(p.meters, &conc.Meter{})
	}
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.stages) }

// SetReplicas changes the worker limit of stage i (minimum 1). Safe to
// call while the pipeline runs; shrinking takes effect as in-flight
// items finish.
func (p *Pipeline) SetReplicas(i, n int) error {
	if i < 0 || i >= len(p.stages) {
		return fmt.Errorf("pipeline: SetReplicas on invalid stage %d", i)
	}
	if n < 1 {
		return fmt.Errorf("pipeline: SetReplicas(%d) below 1", n)
	}
	p.limits[i].SetLimit(n)
	return nil
}

// Replicas returns the current worker limit of stage i (0 for an
// invalid stage index).
func (p *Pipeline) Replicas(i int) int {
	if i < 0 || i >= len(p.stages) {
		return 0
	}
	return p.limits[i].Limit()
}

// StageTotals returns stage i's cumulative completed-item count and
// summed service time (zeros for an invalid stage index). The live
// adaptive sensor diffs two readings to get windowed mean service times
// without the pipeline keeping any per-window state.
func (p *Pipeline) StageTotals(i int) (count int64, sum time.Duration) {
	if i < 0 || i >= len(p.stages) {
		return 0, 0
	}
	return p.meters[i].Totals()
}

// Stats snapshots per-stage counters.
func (p *Pipeline) Stats() []StageStats {
	out := make([]StageStats, len(p.stages))
	for i := range p.stages {
		count, mean, max := p.meters[i].Snapshot()
		out[i] = StageStats{
			Name:        p.stages[i].Name,
			Count:       count,
			Replicas:    p.limits[i].Limit(),
			MeanService: mean,
			MaxService:  max,
		}
	}
	return out
}

// Run starts the pipeline over the input stream. The returned output
// channel yields results in input order and is closed when the input
// channel is exhausted and drained, the context is cancelled, or a
// stage fails. The error channel delivers at most one error (stage
// failure or ctx.Err) and is closed with the output.
func (p *Pipeline) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error) {
	p.mu.Lock()
	if p.ran {
		p.mu.Unlock()
		panic("pipeline: Run called twice")
	}
	p.ran = true
	ex := p.exec
	p.mu.Unlock()
	if ex == nil {
		ex = steal.Default()
	}

	ctx, cancel := context.WithCancel(ctx)
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

	head := make(chan *batch, p.stages[0].Buffer)
	var wg sync.WaitGroup
	wg.Add(1)
	go p.runHead(ctx, inputs, head, &wg)

	// Wire one channel per graph edge, each carrying an index-ordered
	// stream of slabs, buffered by the producing stage's capacity.
	// Splits broadcast through a fan-out goroutine; merges zip their
	// in-streams, which all carry the same slab sequence, so the join is
	// a lockstep read — 1-for-1 ordering survives fan-in by construction.
	n := len(p.stages)
	inEdges := make([][]int, n)
	outEdges := make([][]int, n)
	for ei, e := range p.edges {
		outEdges[e.From] = append(outEdges[e.From], ei)
		inEdges[e.To] = append(inEdges[e.To], ei)
	}
	chans := make([]chan *batch, len(p.edges))
	for ei, e := range p.edges {
		chans[ei] = make(chan *batch, p.stages[e.From].Buffer)
	}
	final := make(chan *batch, p.stages[n-1].Buffer)

	for i := range p.stages {
		var in <-chan *batch
		switch {
		case len(inEdges[i]) == 0: // entry
			in = head
		case len(inEdges[i]) == 1:
			in = chans[inEdges[i][0]]
		default: // merge: zip the ordered in-streams
			ins := make([]<-chan *batch, len(inEdges[i]))
			for k, ei := range inEdges[i] {
				ins[k] = chans[ei]
			}
			joined := make(chan *batch, p.stages[i].Buffer)
			wg.Add(1)
			go p.zipJoin(ctx, ins, joined, &wg, fail)
			in = joined
		}
		var out chan *batch
		switch {
		case len(outEdges[i]) == 0: // exit
			out = final
		case len(outEdges[i]) == 1:
			out = chans[outEdges[i][0]]
		default: // split: share the slab across every out-edge
			outs := make([]chan<- *batch, len(outEdges[i]))
			for k, ei := range outEdges[i] {
				outs[k] = chans[ei]
			}
			spread := make(chan *batch, p.stages[i].Buffer)
			wg.Add(1)
			go p.broadcast(ctx, spread, outs, &wg)
			out = spread
		}
		// A bridge edge with its own grain (EnableBatchEdges) re-slabs at
		// the producing stage's sink; bridge edges always leave a
		// single-out stage, so a split never re-slabs (its consumers
		// share one slab and must agree on its shape).
		var edgeGrain *atomic.Int64
		if len(outEdges[i]) == 1 {
			if ei := outEdges[i][0]; p.regrain != nil && p.regrain[ei] {
				edgeGrain = &p.grains[1+ei]
			}
		}
		wg.Add(1)
		go p.runStage(ctx, ex, i, in, out, edgeGrain, &wg, fail)
	}

	results := make(chan any)
	errs := make(chan error, 1)
	wg.Add(1)
	go func() { // unpack slabs and deliver items in order
		defer wg.Done()
		for b := range final {
			for _, v := range b.items {
				select {
				case results <- v:
				case <-ctx.Done():
					p.releaseBatch(b)
					return
				}
			}
			p.releaseBatch(b)
		}
	}()
	go func() {
		wg.Wait()
		if firstErr == nil && ctx.Err() != nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			errs <- firstErr
		}
		close(errs)
		close(results)
		cancel()
	}()
	return results, errs
}

// runStage dispatches stage i's slabs as tasks on the executor: one
// limiter acquire, one handoff, and one reorder operation per slab,
// with the stage function applied to each item in sequence order.
//
// Executor tasks must never block: with a shared worker set a task
// stuck in a channel send can occupy the worker that would have run the
// downstream task draining that very channel (on a 1-worker set this
// deadlocks outright). So a task finishes into the sink's reorder ring
// — a mutex-guarded put, no send — and the stage's drainer goroutine,
// which may block freely, owns the ordered (and possibly re-slabbing)
// sends and the limiter release. Releasing only on downstream accept
// keeps end-to-end backpressure: at most Replicas slabs sit
// computed-but-undelivered per stage. edgeGrain, when non-nil, makes the
// drainer re-slab the stage's out-edge to that grain (see slabSink).
func (p *Pipeline) runStage(ctx context.Context, ex *steal.Executor, i int, in <-chan *batch, out chan<- *batch, edgeGrain *atomic.Int64, wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	lim := p.limits[i]
	sink := &slabSink{
		total: -1, notify: make(chan struct{}, 1),
		ctx: ctx, out: out, p: p, grain: edgeGrain,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink.drain(lim)
	}()
	taskFn := func(arg any) {
		b := arg.(*batch)
		idx := b.idx
		ob, err := p.apply(ctx, i, b)
		if err != nil {
			fail(err)
		}
		// A failed slab comes back nil, and goes into the sink all the
		// same: the tombstone keeps the index sequence gap-free, so the
		// drainer keeps releasing in-flight tokens while the
		// cancellation unwinds.
		sink.put(idx, ob)
	}
	submitted := 0
	for {
		var b *batch
		var ok bool
		select {
		case b, ok = <-in:
		case <-ctx.Done():
			ok = false
		}
		if !ok {
			break
		}
		lim.Acquire()
		submitted++
		ex.Submit(steal.Task{Fn: taskFn, Arg: b})
	}
	sink.close(submitted)
}

// apply runs stage i's function over every item of slab b, in sequence
// order, and returns the slab of results. It consumes b either way. A
// sole owner (refs == 1: no broadcast sibling still reads b) writes the
// results into b itself, so a chain moves one slab end to end; a shared
// slab is left untouched and the results go into a fresh one. A stage
// function that returns an error or panics yields that error (naming
// the stage and the item; a panic's carries the stack) and no slab, so
// a panic costs the run, not the executor worker every pipeline in the
// process shares.
func (p *Pipeline) apply(ctx context.Context, i int, b *batch) (ob *batch, err error) {
	fn := p.stages[i].Fn
	ob = b
	if atomic.LoadInt32(&b.refs) != 1 {
		ob = p.newBatch(b.idx, b.seq)
		ob.eager = b.eager
		ob.items = append(ob.items, b.items...) // sized; overwritten below
	}
	k := 0
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: stage %s item %d: panic: %v\n%s", p.stages[i].Name, b.seq+k, r, debug.Stack())
		}
		if ob != b {
			p.releaseBatch(b)
		}
		if err != nil {
			p.releaseBatch(ob)
			ob = nil
		}
	}()
	t0 := time.Now()
	for ; k < len(b.items); k++ {
		r, ferr := fn(ctx, b.items[k])
		if ferr != nil {
			return ob, fmt.Errorf("pipeline: stage %s item %d: %w", p.stages[i].Name, b.seq+k, ferr)
		}
		ob.items[k] = r
	}
	p.meters[i].RecordN(int64(k), time.Since(t0))
	return ob, nil
}

// zipJoin merges the in-streams of a fan-in stage slab-wise. Slabs are
// formed at the head (or re-formed on a bridge edge, which every path
// crosses) and preserved 1-for-1 by every stage, so the k-th slab of
// every in-stream has the same index, first sequence number, and
// length; the join reads one slab per stream in lockstep and emits a
// slab of []any part vectors, parts in in-edge order.
func (p *Pipeline) zipJoin(ctx context.Context, ins []<-chan *batch, out chan<- *batch, wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	defer close(out)
	for {
		var ob *batch
		for k, ch := range ins {
			select {
			case b, ok := <-ch:
				if !ok {
					// Streams carry identical slab sequences; the first
					// to close ends the join (its siblings close with the
					// same count unless the run is already failing).
					if ob != nil {
						p.releaseBatch(ob)
					}
					return
				}
				if ob == nil {
					ob = p.newBatch(b.idx, b.seq)
					ob.eager = b.eager
					for range b.items {
						ob.items = append(ob.items, make([]any, len(ins)))
					}
				} else if b.idx != ob.idx || len(b.items) != len(ob.items) {
					fail(fmt.Errorf("pipeline: fan-in slab skew (slab %d vs %d, %d vs %d items)",
						b.idx, ob.idx, len(b.items), len(ob.items)))
					p.releaseBatch(b)
					p.releaseBatch(ob)
					return
				}
				for j, v := range b.items {
					ob.items[j].([]any)[k] = v
				}
				p.releaseBatch(b)
			case <-ctx.Done():
				if ob != nil {
					p.releaseBatch(ob)
				}
				return
			}
		}
		select {
		case out <- ob:
		case <-ctx.Done():
			p.releaseBatch(ob)
			return
		}
	}
}

// broadcast fans a split stage's slab stream onto every out-edge. The
// slab is shared, not copied: the reference count grows by one per
// extra consumer before the first send, and each downstream stage
// releases its reference after reading (apply never writes into a slab
// it shares).
func (p *Pipeline) broadcast(ctx context.Context, in <-chan *batch, outs []chan<- *batch, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		for _, ch := range outs {
			close(ch)
		}
	}()
	for {
		var b *batch
		var ok bool
		select {
		case b, ok = <-in:
		case <-ctx.Done():
			return
		}
		if !ok {
			return
		}
		atomic.AddInt32(&b.refs, int32(len(outs)-1))
		for _, ch := range outs {
			select {
			case ch <- b:
			case <-ctx.Done():
				return
			}
		}
	}
}

// Process runs the pipeline over a slice and returns the outputs in
// input order.
func (p *Pipeline) Process(ctx context.Context, inputs []any) ([]any, error) {
	return Collect(ctx, inputs, func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
		out, errs := p.Run(ctx, in)
		return out, errs, nil
	})
}

// Collect is the slice form of a streaming run, shared by the pipeline,
// the farm, and the facade: it starts run on a fresh input channel,
// feeds it inputs, gathers the outputs until the output channel closes,
// and checks the 1-for-1 count. run receives a context derived from ctx
// that Collect cancels when it returns, so a run that stops reading
// early — a stage failed, the caller cancelled — never leaves the
// feeder blocked on a send with the input slice pinned. run is wired
// before the feeder starts: if it refuses, no goroutine exists yet.
func Collect(ctx context.Context, inputs []any, run func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error)) ([]any, error) {
	ctx, cancel := context.WithCancel(ctx)
	in := make(chan any)
	out, errs, err := run(ctx, in)
	if err != nil {
		cancel()
		return nil, err
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		for _, v := range inputs {
			select {
			case in <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	defer func() {
		cancel()
		<-fed
	}()
	results := make([]any, 0, len(inputs))
	for v := range out {
		results = append(results, v)
	}
	if err := <-errs; err != nil {
		return nil, err
	}
	if len(results) != len(inputs) {
		return nil, fmt.Errorf("pipeline: %d outputs for %d inputs", len(results), len(inputs))
	}
	return results, nil
}
