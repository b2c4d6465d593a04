// Package pipeline is the live, in-process implementation of the
// pipeline skeleton: the same 1-for-1 discipline the simulator
// models, executing real Go functions on the local machine.
//
// Semantics (eSkel Pipeline1for1, generalised to a stage graph):
//   - every input passes through every stage (along every edge of the
//     stage graph — see internal/topo);
//   - each stage produces exactly one output per input; a stage with
//     several out-edges sends its output along each (a split), a
//     stage with several in-edges receives a []any holding one part
//     per in-edge, in edge order (a merge);
//   - outputs are delivered in input order, even when a stage is
//     replicated: each edge carries an index-ordered stream of slabs,
//     restored by the producing stage's reorder ring, so a merge joins
//     its in-streams by zipping them — ordering survives fan-in by
//     construction.
//
// There is one data path, and no goroutine per stage. The head batcher
// packs inputs into pooled slabs of up to grain items (grain 1, the
// default, is a slab of one — batch.go) and the egress unpacks them into
// the output channel's small fixed buffer (ioBuffer items) for the
// consumer; between the two sits a per-run dataflow state (dataflow.go)
// in which a slab is in one of three places, each bounded:
//
//   - an edge queue: at most the producing stage's Buffer slabs (the
//     entry queue the head fills and the exit queue the egress drains
//     are edges like any other);
//   - holding a token of its stage's limiter, from when the stage takes
//     it off its in-edges until its out-edges accept it — queued on the
//     executor, running, or in the ring: at most Replicas slabs, which
//     makes Replicas an end-to-end backpressure bound and SetReplicas
//     the live counterpart of the simulator's replicate action;
//   - in the stage's reorder ring, finished, until every earlier index
//     has left: never more than Replicas slabs.
//
// With the slab the head is filling or pushing and the slab the egress is
// unpacking, a run whose consumer reads nothing holds at most that many
// slabs times the grain, plus the ioBuffer items already unpacked.
//
// Two rules move slabs, and both only ever try — nothing waits under the
// run's mutex. Fire: while every in-edge of a stage holds a slab and the
// stage has a free token, pop one slab per in-edge (a merge zips them)
// and hand (stage, slab) to the shared work-stealing executor
// (internal/conc/steal). Deliver: while the stage's ring holds its next
// in-index slab and every out-edge has room, pop it, release the token,
// push it on every out-edge. Whoever changes the state runs the rules to
// a fixpoint: the head after pushing a slab, the egress after popping
// one, SetReplicas after resizing a limiter, and — the common case — the
// executor task that just finished a slab, which files it in the ring,
// moves everything that can move, then runs one of the slabs it released
// itself and submits the others. That inline continuation is capped at
// one trip down the pipeline: the task function must return for the
// executor's stall probe to see the worker move and for the worker to
// look at the inject queue again.
//
// Only the head and the egress ever park, and both pay their channel per
// burst, not per item. The head parks when the input is dry — in a select
// on input, the open slab's linger clock and cancellation — and on a full
// entry queue; while the input holds items it drains them with
// non-blocking receives, no select and no timer. The egress parks on an
// empty exit queue and on a consumer that has let the output buffer fill;
// while the buffer has room a send is a non-blocking try. Executor tasks
// take the mutex and nothing else, so a one-worker executor runs any
// pipeline and a Run is two goroutines at any stage count.
//
// End of stream and cancellation travel by rule too: a stage retires,
// closing its out-edges, once its in-edge is closed and empty (or the run
// is cancelled) and every slab it started has left its ring. Cancellation
// — the caller's, or a failed stage's — is noticed at the next step by
// whoever takes it (the head at every flush and every park, the egress at
// every park), returns every queued slab to the pool, and stops both
// rules from moving anything forward: the ordered output is truncated,
// never punctured — what the output buffer still holds is an in-order
// prefix the consumer may yet read. The hot path allocates nothing in
// steady state (batch.go); only a merge does, one []any of parts per
// item.
//
// The task farm (internal/farm) is a one-stage pipeline, and its unordered
// mode the one exception to "in input order": Stage.Unordered has the
// finishing task file its slab at the ring's next free index rather than
// the slab's own, so deliver releases slabs as they complete — same ring,
// same rules, nothing else differs.
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

// ioBuffer is the capacity of the two channels the package makes itself:
// a run's output, which the egress unpacks slabs into, and the input
// Collect feeds a slice through. It lets either end pay the channel once
// per burst instead of a rendezvous per item; it is fixed, not an option
// (16 to 64 measured alike), and the output's is the whole of what a run
// can hold beyond its slabs.
const ioBuffer = 32

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
	// Buffer is the capacity, in slabs, of the queue on each of the
	// stage's out-edges — the bounded inter-stage buffer of the skeleton
	// (default 1). Stage 0's also sizes the entry queue the head batcher
	// fills, the last stage's the exit queue the egress drains.
	Buffer int
	// Unordered files each finished slab at the ring's next free index, so
	// slabs leave in completion order. Only internal/farm sets it; NewGraph
	// refuses it beside any other stage, where a merge downstream would zip
	// slabs of different items unnoticed.
	Unordered bool
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

	// run is the dataflow of the Run in progress (nil before it).
	run atomic.Pointer[dataflow]

	// onDone, set by OnDone before Run, runs when the run has ended.
	onDone func()

	// slabHook, installed by a test before Run, sees +1 for every slab
	// taken from the pool and -1 for every slab returned to it.
	slabHook func(delta int)
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
		if st.Unordered && len(stages) > 1 {
			return nil, fmt.Errorf("pipeline: stage %d is unordered in a pipeline of %d stages", i, len(stages))
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
// items finish, growing admits queued slabs at once.
func (p *Pipeline) SetReplicas(i, n int) error {
	if i < 0 || i >= len(p.stages) {
		return fmt.Errorf("pipeline: SetReplicas on invalid stage %d", i)
	}
	if n < 1 {
		return fmt.Errorf("pipeline: SetReplicas(%d) below 1", n)
	}
	p.limits[i].SetLimit(n)
	if r := p.run.Load(); r != nil {
		r.kick(i)
	}
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

// OnDone registers fn, before Run, to be called once when nothing of the
// run is left, on the run's own goroutine and before its channels close:
// what must stop with the run (the live controller's ticker) needs no
// goroutine of its own to wait for that.
func (p *Pipeline) OnDone(fn func()) { p.onDone = fn }

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

	r := p.newDataflow(ctx, ex, fail)
	p.run.Store(r)

	results := make(chan any, ioBuffer)
	errs := make(chan error, 1)
	go r.runHead(inputs)
	go func() {
		r.runEgress(results)
		// The output closes only when nothing of the run is left: the head
		// has returned, and every stage's last task has filed its result.
		r.running.Wait()
		if firstErr == nil && ctx.Err() != nil {
			firstErr = ctx.Err()
		}
		if firstErr != nil {
			errs <- firstErr
		}
		if p.onDone != nil {
			p.onDone()
		}
		close(errs)
		close(results)
		cancel()
	}()
	return results, errs
}

// apply runs stage i's function over every item of slab b, in sequence
// order, and returns the slab of results. It consumes b either way. A
// sole owner (refs == 1: no sibling of a split still reads b) writes the
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

// Process runs the pipeline over a slice and returns the outputs in
// input order.
func (p *Pipeline) Process(ctx context.Context, inputs []any) ([]any, error) {
	return Collect(ctx, inputs, func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error) {
		out, errs := p.Run(ctx, in)
		return out, errs, nil
	})
}

// Collect is the slice form of a streaming run, shared by the pipeline
// (and so the farm) and the facade: it starts run on a fresh input channel,
// feeds it inputs, gathers the outputs until the output channel closes,
// and checks the 1-for-1 count. run receives a context derived from ctx
// that Collect cancels when it returns, so a run that stops reading
// early — a stage failed, the caller cancelled — never leaves the
// feeder blocked on a send with the input slice pinned. run is wired
// before the feeder starts: if it refuses, no goroutine exists yet.
func Collect(ctx context.Context, inputs []any, run func(ctx context.Context, in <-chan any) (<-chan any, <-chan error, error)) ([]any, error) {
	ctx, cancel := context.WithCancel(ctx)
	in := make(chan any, ioBuffer)
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
			if !offer(ctx, in, v) {
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
