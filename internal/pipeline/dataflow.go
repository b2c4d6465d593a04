// The per-run dataflow state and its two rules, fire and deliver; the
// package comment (pipeline.go) describes the design.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc/steal"
	"gridpipe/internal/ring"
)

// edge is a bounded slab queue from a producer to a consumer, both stage
// indices; -1 is the head batcher and len(stages) the egress.
type edge struct {
	q        ring.FIFO[*batch]
	room     int // capacity, in slabs: the producing stage's Buffer
	from, to int
	closed   bool // the producer retired: nothing more will be pushed

	// Re-slab state of a bridge edge with its own grain (edgegrain.go; grain
	// is nil otherwise). deliver folds each in-order slab into acc, which
	// flushes into q, under fresh contiguous indices, at the edge grain,
	// behind an eager slab, and when the producer retires. Room is checked
	// once per folded slab, so a coarse→fine regrain may overshoot it by
	// ⌈slab size / edge grain⌉ slabs.
	grain   *atomic.Int64
	acc     *batch
	nextIdx int
	nextSeq int
}

// stageState is one stage's share of the run state.
type stageState struct {
	in, out []*edge // in edge-list order: a merge's parts follow it
	pending ring.Reorder[*batch]
	flying  int // slabs fired and not yet out of pending: each holds a token
	// dead latches at a failed task's tombstone: nothing after the gap may
	// leave the stage, or the output would not be a prefix. (The failure
	// also cancels the run; the latch keeps the guarantee local.)
	dead    bool
	retired bool
	dirty   bool // on the worklist
}

// ready is a fired slab on its way to the executor. A step collects them
// in an array on the stepper's stack; if it fills, the step stops early.
type ready struct {
	s int
	b *batch
}

type dataflow struct {
	p     *Pipeline
	ctx   context.Context
	fail  func(error)
	ex    *steal.Executor
	tasks []func(any) // the executor task of each stage

	mu        sync.Mutex
	stages    []stageState
	edges     []edge // the graph's edges, then the entry, then the exit
	entry     *edge
	exit      *edge
	work      []int // dirty stages; each at most once, so cap = len(stages)
	cancelled bool

	// Buffered(1) edge triggers for the two parties that park; a sleeper
	// re-reads the state before sleeping again, so a full one loses nothing.
	headWake chan struct{}
	exitWake chan struct{}
	running  sync.WaitGroup // the stages not yet retired, and the head
}

func (p *Pipeline) newDataflow(ctx context.Context, ex *steal.Executor, fail func(error)) *dataflow {
	n := len(p.stages)
	r := &dataflow{
		p: p, ctx: ctx, fail: fail, ex: ex,
		tasks:    make([]func(any), n),
		stages:   make([]stageState, n),
		edges:    make([]edge, len(p.edges)+2),
		work:     make([]int, 0, n),
		headWake: make(chan struct{}, 1),
		exitWake: make(chan struct{}, 1),
	}
	for ei, e := range p.edges {
		r.edges[ei] = edge{from: e.From, to: e.To, room: p.stages[e.From].Buffer}
		// A bridge always leaves a single-out stage: a split never re-slabs.
		if p.regrain != nil && p.regrain[ei] {
			r.edges[ei].grain = &p.grains[1+ei]
		}
	}
	r.entry, r.exit = &r.edges[len(p.edges)], &r.edges[len(p.edges)+1]
	*r.entry = edge{from: -1, to: 0, room: p.stages[0].Buffer}
	*r.exit = edge{from: n - 1, to: n, room: p.stages[n-1].Buffer}
	for ei := range r.edges {
		e := &r.edges[ei]
		if e.from >= 0 {
			r.stages[e.from].out = append(r.stages[e.from].out, e)
		}
		if e.to < n {
			r.stages[e.to].in = append(r.stages[e.to].in, e)
		}
	}
	for s := range r.tasks {
		r.tasks[s] = func(arg any) { r.runTask(s, arg.(*batch)) }
	}
	r.running.Add(n + 1)
	return r
}

// runTask is the executor task: apply the stage to the slab, file the
// result — or the nil tombstone of a failed slab, which keeps the ring's
// indices gap-free so the tokens behind it keep coming back while the
// cancellation unwinds — advance, and carry on with a slab that released,
// for at most one trip down the pipeline. An unordered stage files at the
// ring's next free index instead of the slab's own, so deliver, unchanged,
// releases slabs in completion order.
func (r *dataflow) runTask(s int, b *batch) {
	for runs := 1; ; runs++ {
		idx := b.idx
		ob, err := r.p.apply(r.ctx, s, b)
		if err != nil {
			r.fail(err)
		}
		r.mu.Lock()
		pending := &r.stages[s].pending
		if r.p.stages[s].Unordered {
			idx = pending.Next() + pending.Held()
		}
		pending.Put(idx, ob)
		r.mark(s)
		next := r.advance(runs < len(r.stages))
		if next.b == nil {
			return
		}
		s, b = next.s, next.b
	}
}

// kick re-examines stage s after a change from outside (a resized limiter).
func (r *dataflow) kick(s int) {
	r.mu.Lock()
	r.mark(s)
	r.advance(false)
}

// advance runs the rules to a fixpoint and submits what fired. Called
// with r.mu held, returns with it released. With inline set it keeps the
// furthest-downstream fired slab — the oldest work in the pipeline — for
// the calling task to run itself, sparing it the inject queue.
func (r *dataflow) advance(inline bool) (keep ready) {
	var buf [8]ready
	for {
		rd := r.step(buf[:0])
		more := len(r.work) > 0
		r.mu.Unlock()
		for _, it := range rd {
			if inline && (keep.b == nil || it.s > keep.s) {
				it, keep = keep, it
			}
			if it.b != nil {
				r.ex.Submit(steal.Task{Fn: r.tasks[it.s], Arg: it.b})
			}
		}
		if !more {
			return keep
		}
		r.mu.Lock()
	}
}

// step visits dirty stages until none is left or rd is full.
func (r *dataflow) step(rd []ready) []ready {
	if !r.cancelled && r.ctx.Err() != nil {
		r.cancelAll()
	}
	for len(r.work) > 0 && len(rd) < cap(rd) {
		s := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		st := &r.stages[s]
		st.dirty = false
		if st.retired {
			continue
		}
		r.deliver(s, st)
		rd = r.fire(s, st, rd)
		r.retire(st)
	}
	return rd
}

// mark puts stage s on the worklist; the head and the egress, which run
// no rule, are woken instead.
func (r *dataflow) mark(s int) {
	switch {
	case s < 0:
		wake(r.headWake)
	case s >= len(r.stages):
		wake(r.exitWake)
	case !r.stages[s].dirty:
		r.stages[s].dirty = true
		r.work = append(r.work, s)
	}
}

func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// cancelAll latches cancellation: every queued slab and partial re-slab
// goes back to the pool; deliver now releases what it pops and fire does
// nothing. Fired slabs still run; a stage retires when its last one has.
func (r *dataflow) cancelAll() {
	r.cancelled = true
	for i := range r.edges {
		e := &r.edges[i]
		for b, ok := e.q.Pop(); ok; b, ok = e.q.Pop() {
			r.p.releaseBatch(b)
		}
		if e.acc != nil {
			r.p.releaseBatch(e.acc)
			e.acc = nil
		}
	}
	for s := range r.stages {
		r.mark(s)
	}
}

// deliver is the first rule. The token is released only when the slab has
// been accepted downstream: that is what makes Replicas a backpressure
// bound.
func (r *dataflow) deliver(s int, st *stageState) {
	for {
		if !r.cancelled && !st.dead && !hasRoom(st.out) {
			return
		}
		_, b, ok := st.pending.PopNext()
		if !ok {
			return
		}
		st.flying--
		r.p.limits[s].Release()
		switch {
		case b == nil:
			st.dead = true
		case st.dead || r.cancelled:
			r.p.releaseBatch(b)
		case st.out[0].grain != nil:
			r.reslab(st.out[0], b)
		default:
			// A split shares the slab: one reference per extra consumer,
			// taken before any of them can see it.
			if len(st.out) > 1 {
				atomic.AddInt32(&b.refs, int32(len(st.out)-1))
			}
			for _, e := range st.out {
				r.push(e, b)
			}
		}
	}
}

func hasRoom(out []*edge) bool {
	for _, e := range out {
		if e.q.Len() >= e.room {
			return false
		}
	}
	return true
}

func (r *dataflow) push(e *edge, b *batch) {
	e.q.Push(b)
	r.mark(e.to)
}

// reslab folds one in-order slab into a regraining edge's accumulator,
// flushing at the edge grain and on eager pressure.
func (r *dataflow) reslab(e *edge, nb *batch) {
	tgt := int(e.grain.Load())
	for _, v := range nb.items {
		if e.acc == nil {
			e.acc = r.p.newBatch(e.nextIdx, e.nextSeq)
		}
		e.acc.items = append(e.acc.items, v)
		if len(e.acc.items) >= tgt {
			r.flushAcc(e, nb.eager)
		}
	}
	if nb.eager && e.acc != nil {
		r.flushAcc(e, true)
	}
	r.p.releaseBatch(nb)
}

func (r *dataflow) flushAcc(e *edge, eager bool) {
	b := e.acc
	e.acc = nil
	b.eager = eager
	e.nextIdx++
	e.nextSeq += len(b.items)
	r.push(e, b)
}

// fire is the second rule.
func (r *dataflow) fire(s int, st *stageState, rd []ready) []ready {
	for !r.cancelled {
		for _, e := range st.in {
			if e.q.Len() == 0 {
				return rd
			}
		}
		if len(rd) == cap(rd) {
			r.mark(s) // resume here once the list has been submitted
			return rd
		}
		if !r.p.limits[s].TryAcquire() {
			return rd
		}
		b := r.take(st)
		if b == nil {
			r.p.limits[s].Release()
			return rd
		}
		st.flying++
		rd = append(rd, ready{s, b})
	}
	return rd
}

// take pops stage st's next input slab, one per in-edge, and marks the
// producers: room opened behind them. Every stage preserves slabs
// 1-for-1, so the k-th slab of every in-stream of a merge has the same
// index and length; the join is a slab of []any part vectors, parts in
// in-edge order. A skewed pair fails the run and yields nil.
func (r *dataflow) take(st *stageState) *batch {
	if len(st.in) == 1 {
		e := st.in[0]
		b, _ := e.q.Pop()
		r.mark(e.from)
		return b
	}
	var ob *batch
	for k, e := range st.in {
		b, _ := e.q.Pop()
		r.mark(e.from)
		switch {
		case ob == nil:
			ob = r.p.newBatch(b.idx, b.seq)
			ob.eager = b.eager
			for range b.items {
				ob.items = append(ob.items, make([]any, len(st.in)))
			}
		case b.idx != ob.idx || len(b.items) != len(ob.items):
			r.fail(fmt.Errorf("pipeline: fan-in slab skew (slab %d vs %d, %d vs %d items)",
				b.idx, ob.idx, len(b.items), len(ob.items)))
			r.p.releaseBatch(b)
			r.p.releaseBatch(ob)
			return nil
		}
		for j, v := range b.items {
			ob.items[j].([]any)[k] = v
		}
		r.p.releaseBatch(b)
	}
	return ob
}

// retire ends a stage: nothing of it is on the executor or in its ring,
// and nothing more can arrive — the run is cancelled, or its in-edge is
// closed and empty (a merge's in-edges carry the same slab sequence, so
// the first drained means all are). A partial re-slab goes out as the
// stream's tail.
func (r *dataflow) retire(st *stageState) {
	if st.flying > 0 {
		return
	}
	if e := st.in[0]; !r.cancelled && !(e.closed && e.q.Len() == 0) {
		return
	}
	st.retired = true
	for _, e := range st.out {
		if e.acc != nil {
			r.flushAcc(e, true)
		}
		e.closed = true
		r.mark(e.to)
	}
	r.running.Done()
}

// runHead is the head batcher: it sequence-tags the inputs and packs
// them into slabs, flushed into the entry queue on grain or linger. This
// is the only place an item ever waits for more input. It pays the
// channel once per burst: it parks in the three-case select only when the
// input is dry, and drains what the channel already holds with
// non-blocking receives straight into the open slab.
func (r *dataflow) runHead(inputs <-chan any) {
	p := r.p
	seq, idx := 0, 0
	var cur *batch
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var timerC <-chan time.Time // non-nil while cur's linger clock runs
	defer func() {
		if cur != nil { // never accepted: the run was cancelled
			p.releaseBatch(cur)
		}
		r.mu.Lock()
		r.entry.closed = true
		r.mark(0)
		r.running.Done()
		r.advance(false)
	}()
	var (
		v        any
		ok, more bool
	)
	// next is the burst's look-ahead, a non-blocking receive into v, ok:
	// more says whether the channel had anything — an item, or its close —
	// and the result whether an item follows the ones already taken.
	next := func() bool {
		select {
		case v, ok = <-inputs:
			more = true
		default:
			more = false
		}
		return more && ok
	}
	// flush hands cur to the entry queue: eager as it is (linger, end of
	// input) with a nil look, and otherwise eager unless look finds the
	// item that opens the following slab (see pushEntry).
	flush := func(look func() bool) bool {
		if timerC != nil {
			timer.Stop()
			timerC = nil
		}
		if !r.pushEntry(cur, look) {
			return false
		}
		cur = nil
		idx++
		return true
	}
	for {
		// The input is dry: park. A partial slab gets its linger clock
		// here, once — its oldest item is at most a burst old — and never
		// inside a burst.
		if cur != nil && timerC == nil {
			timer.Reset(time.Duration(p.linger.Load()))
			timerC = timer.C
		}
		select {
		case v, ok = <-inputs:
		case <-timerC:
			timerC = nil
			if !flush(nil) {
				return
			}
			continue
		case <-r.ctx.Done():
			return
		}
		for more = true; more; {
			if !ok { // closed: a partial slab is the stream's tail
				if cur != nil {
					flush(nil)
				}
				return
			}
			if cur == nil {
				cur = p.newBatch(idx, seq)
			}
			cur.items = append(cur.items, v)
			seq++
			if len(cur.items) < p.Grain() {
				next()
			} else if !flush(next) {
				return
			}
		}
	}
}

// pushEntry blocks until the entry queue takes b; false means the run
// was cancelled first and b is still the caller's. A nil look sends b
// eager. Otherwise b is grain-full and look, the head's non-blocking
// look-ahead, decides once there is room: if it produced the item that
// opens the following slab, another flush is certain to come and b is not
// eager; if the input is dry, b may be the last traffic for a while, and
// marking it eager lets coarsening boundaries downstream drain instead of
// parking its items until the next burst. Looking only once the queue has
// room keeps the head from holding an item beyond the slab it pushes.
func (r *dataflow) pushEntry(b *batch, look func() bool) bool {
	for {
		r.mu.Lock()
		switch {
		case r.cancelled:
			r.mu.Unlock()
			return false
		case r.entry.q.Len() < r.entry.room:
			b.eager = look == nil || !look()
			r.push(r.entry, b)
			r.advance(false)
			return true
		}
		r.mu.Unlock()
		select {
		case <-r.headWake:
		case <-r.ctx.Done():
			return false
		}
	}
}

// offer sends v on c, trying a non-blocking send first — a buffered
// channel with room costs no select — and otherwise parking until v is
// taken or ctx ends (false).
func offer(ctx context.Context, c chan<- any, v any) bool {
	select {
	case c <- v:
		return true
	default:
	}
	select {
	case c <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// runEgress unpacks the exit queue's slabs and delivers their items, in
// order, until the last stage has retired and the queue is empty, or the
// run is cancelled.
func (r *dataflow) runEgress(results chan<- any) {
	defer r.kick(r.exit.from) // take note of a cancellation, if that ended it
	for {
		r.mu.Lock()
		b, ok := r.exit.q.Pop()
		if !ok {
			closed := r.exit.closed
			r.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-r.exitWake:
				continue
			case <-r.ctx.Done():
				return
			}
		}
		r.mark(r.exit.from) // room opened behind the last stage
		r.advance(false)
		for _, v := range b.items {
			if !offer(r.ctx, results, v) {
				r.p.releaseBatch(b)
				return
			}
		}
		r.p.releaseBatch(b)
	}
}
