// The per-run dataflow state and its three rules, deliver, fire and
// unpack; the package comment (pipeline.go) describes the design.
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
}

// stageState is one stage's share of the run state.
type stageState struct {
	in, out []*edge // in edge-list order: a merge's parts follow it
	pending ring.Reorder[*batch]
	flying  int // slabs fired and not yet out of pending; fire keeps it under the limit
	// dead latches at a failed task's tombstone: nothing after the gap may
	// leave the stage, or the output would not be a prefix. (The failure
	// also cancels the run; the latch keeps the guarantee local.)
	dead    bool
	retired bool
	dirty   bool // on the worklist
}

// yieldAfter is the stage work past which the yield rule (advance) hands
// the processor to a goroutine the task readied: a worker on stages that
// long may not block again for a scheduler time slice. It is read two
// ways, one per trigger: as the task's real stage work so far, when its
// send readied a parked consumer, and as the stage clock's estimate of
// the slab the task keeps, when stage 0 waits on the head. Below it,
// stage work is cheaper than the yield's round trip through the
// scheduler, and the worker soon blocks or parks anyway.
const yieldAfter = 5 * time.Microsecond

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

	// done is ctx.Done(), read once: a receive from an open channel takes
	// no lock, where ctx.Err() locks the context every worker shares.
	done <-chan struct{}
	out  chan<- any // the run's output, outputRoom items

	mu        sync.Mutex
	stages    []stageState
	edges     []edge // the graph's edges, then the entry, then the exit
	entry     *edge
	exit      *edge
	work      []int // dirty stages; each at most once, so cap = len(stages)
	cancelled bool
	// sending: one party at a time unpacks exit slabs into out — the
	// stepper the unpack rule chose, or the egress. The egress sets it for
	// good when it returns, so nothing ever sends on a closed output.
	sending bool

	// Buffered(1) edge triggers for the two parties that park; a sleeper
	// re-reads the state before sleeping again, so a full one loses nothing.
	headWake    chan struct{}
	exitWake    chan struct{}
	egressParks int            // times the egress parked; read by tests after the run
	running     sync.WaitGroup // the stages not yet retired, and the head
}

func (p *Pipeline) newDataflow(ctx context.Context, ex *steal.Executor, fail func(error), out chan<- any) *dataflow {
	n := len(p.stages)
	r := &dataflow{
		p: p, ctx: ctx, fail: fail, ex: ex, done: ctx.Done(), out: out,
		tasks:    make([]func(any), n),
		stages:   make([]stageState, n),
		edges:    make([]edge, len(p.edges)+2),
		work:     make([]int, 0, n),
		headWake: make(chan struct{}, 1),
		exitWake: make(chan struct{}, 1),
	}
	for ei, e := range p.edges {
		r.edges[ei] = edge{from: e.From, to: e.To, room: p.stages[e.From].Buffer}
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
// indices gap-free so the slabs behind it keep leaving flight while the
// cancellation unwinds — advance, and carry on with a slab that released,
// for at most one trip down the pipeline, unless advance yielded the
// processor to the consumer and ended the task. An unordered stage files
// at the ring's next free index instead of the slab's own, so deliver,
// unchanged, releases slabs in completion order.
func (r *dataflow) runTask(s int, b *batch) {
	var busy time.Duration
	for runs := 1; ; runs++ {
		idx := b.idx
		ob, d, err := r.p.apply(r.ctx, s, b)
		busy += d
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
		next := r.advance(runs < len(r.stages), busy)
		if next.b == nil {
			return
		}
		s, b = next.s, next.b
	}
}

// kick re-examines stage s after a change from outside (a new limit).
func (r *dataflow) kick(s int) {
	r.mu.Lock()
	r.mark(s)
	r.advance(false, 0)
}

// advance runs the rules to a fixpoint, submits what fired and sends
// what the unpack rule popped, at most cap(r.out) items: two slabs at
// the run's starting grain. Called with r.mu held, returns with it
// released. With inline set it keeps the furthest-downstream fired slab —
// the oldest work in the pipeline — for the calling task to run itself,
// sparing it the inject queue.
//
// It applies the yield rule (package comment): after a send into a
// drained output, with busy ≥ yieldAfter, the task submits what it kept,
// yields and ends; when the head is starved (headStarved) and the slab
// it keeps is long by the stage clock (long), it yields, then runs it.
func (r *dataflow) advance(inline bool, busy time.Duration) (keep ready) {
	var buf [8]ready
	budget := cap(r.out)
	for {
		rd := r.step(buf[:0])
		out := r.unpack(budget)
		more := len(r.work) > 0
		starved := inline && !more && r.headStarved()
		r.mu.Unlock()
		for _, it := range rd {
			if inline && (keep.b == nil || it.s > keep.s) {
				it, keep = keep, it
			}
			if it.b != nil {
				r.ex.Submit(steal.Task{Fn: r.tasks[it.s], Arg: it.b})
			}
		}
		if out != nil {
			// Cannot block: the items fit the buffer's free room, nobody
			// else sends, and the consumer only makes more room. An empty
			// buffer means the consumer may be parked on it.
			drained := len(r.out) == 0
			for _, v := range out.items {
				r.out <- v
			}
			budget -= len(out.items)
			r.p.releaseBatch(out)
			r.mu.Lock()
			r.sending = false
			if drained && busy >= yieldAfter {
				// The first send readied the parked consumer onto this
				// worker's run queue, where it waits until the worker
				// blocks. After long stage work the worker hands it the
				// processor instead, and the task ends after the yield:
				// what it kept goes to the executor.
				r.mu.Unlock()
				if keep.b != nil {
					r.ex.Submit(steal.Task{Fn: r.tasks[keep.s], Arg: keep.b})
				}
				keep, inline, busy = ready{}, false, 0
				r.ex.Yield()
				r.mu.Lock()
			}
			continue
		}
		if !more {
			if starved && keep.b != nil && r.long(keep) {
				// A kept slab that blocks after the yield hides from the
				// stall probe for the yield's tick only: its spill worker
				// comes a tick later
				// (TestBlockedSlabAfterHeadYieldGetsSpillWorker).
				r.ex.Yield()
			}
			return keep
		}
		r.mu.Lock()
	}
}

// headStarved reports, under r.mu, whether stage 0 could fire a slab but
// its in-edge is empty and open: the run waits on the head.
func (r *dataflow) headStarved() bool {
	e := r.entry
	return !r.cancelled && !e.closed && e.q.Len() == 0 &&
		int64(r.stages[0].flying) < r.p.live[0].limit.Load()
}

// long reports whether the stage clock says slab rd takes at least
// yieldAfter.
func (r *dataflow) long(rd ready) bool {
	per := time.Duration(r.p.live[rd.s].perItem.Load())
	return per*time.Duration(len(rd.b.items)) >= yieldAfter
}

// step visits dirty stages until none is left or rd is full.
func (r *dataflow) step(rd []ready) []ready {
	if !r.cancelled && isDone(r.done) {
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
		r.deliver(st)
		rd = r.fire(s, st, rd)
		r.retire(st)
	}
	return rd
}

// mark puts stage s on the worklist; the head, which runs no rule, is
// woken instead, and the exit queue needs nothing: the unpack rule looks
// at it after every step.
func (r *dataflow) mark(s int) {
	switch {
	case s < 0:
		wake(r.headWake)
	case s >= len(r.stages):
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

// cancelAll latches cancellation: every queued slab goes back to the
// pool; deliver now releases what it pops and fire does nothing. Fired
// slabs still run; a stage retires when its last one has.
func (r *dataflow) cancelAll() {
	r.cancelled = true
	for i := range r.edges {
		e := &r.edges[i]
		for b, ok := e.q.Pop(); ok; b, ok = e.q.Pop() {
			r.p.releaseBatch(b)
		}
	}
	for s := range r.stages {
		r.mark(s)
	}
}

// unpack is the third rule, applied after every step: while nobody is
// sending and the run is not cancelled, pop the front exit slab for the
// caller to send if its items fit whole in both the output's free room
// and budget — the items the caller may still send before it returns, so
// a task does not keep its worker past cap(out) items and the executor's
// stall probe still sees tasks end. What the rule leaves — a slab that
// does not fit, a drained and closed exit queue, a cancellation — wakes
// the egress.
func (r *dataflow) unpack(budget int) *batch {
	if r.sending {
		return nil
	}
	e := r.exit
	b, ok := e.q.Peek()
	switch {
	case r.cancelled || !ok && e.closed:
		wake(r.exitWake)
		return nil
	case !ok:
		return nil
	case len(b.items) > min(budget, cap(r.out)-len(r.out)):
		wake(r.exitWake)
		return nil
	}
	e.q.Pop()
	r.sending = true
	r.mark(e.from) // room opened behind the last stage
	return b
}

// deliver is the first rule. A slab leaves flight only when it has been
// accepted downstream: that is what makes Replicas a backpressure bound.
func (r *dataflow) deliver(st *stageState) {
	for {
		if !r.cancelled && !st.dead && !hasRoom(st.out) {
			return
		}
		_, b, ok := st.pending.PopNext()
		if !ok {
			return
		}
		st.flying--
		switch {
		case b == nil:
			st.dead = true
		case st.dead || r.cancelled:
			r.p.releaseBatch(b)
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
		if int64(st.flying) >= r.p.live[s].limit.Load() {
			return rd
		}
		st.flying++
		rd = append(rd, ready{s, r.take(st)})
	}
	return rd
}

// take pops stage st's next input slab, one per in-edge, and marks the
// producers: room opened behind them. Slabs are formed only at the head
// and every stage preserves them 1-for-1, so the k-th slab of every
// in-stream of a merge has the same index and length; the join is a slab
// of []any part vectors, parts in in-edge order.
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
			for range b.items {
				ob.items = append(ob.items, make([]any, len(st.in)))
			}
		case b.idx != ob.idx || len(b.items) != len(ob.items):
			panic(fmt.Sprintf("pipeline: fan-in slab skew (slab %d vs %d, %d vs %d items); slabs are formed only at the head and kept 1-for-1, so a merge's in-streams cannot skew",
				b.idx, ob.idx, len(b.items), len(ob.items)))
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
// the first drained means all are).
func (r *dataflow) retire(st *stageState) {
	if st.flying > 0 {
		return
	}
	if e := st.in[0]; !r.cancelled && !(e.closed && e.q.Len() == 0) {
		return
	}
	st.retired = true
	for _, e := range st.out {
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
		r.advance(false, 0)
	}()
	var (
		v        any
		ok, more bool
	)
	// next takes the burst's next item without blocking, into v, ok; more
	// says whether the channel had anything — an item, or its close.
	next := func() {
		select {
		case v, ok = <-inputs:
			more = true
		default:
			more = false
		}
	}
	// flush hands cur to the entry queue and stops its linger clock; a
	// grain-full slab passes next, which pushEntry calls once cur is in.
	flush := func(next func()) bool {
		if timerC != nil {
			timer.Stop()
			timerC = nil
		}
		if !r.pushEntry(cur, next) {
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
		case <-r.done:
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
			if len(cur.items) < int(p.grain.Load()) {
				next()
			} else if !flush(next) {
				return
			}
		}
	}
}

// pushEntry blocks until the entry queue takes b; false means the run
// was cancelled first and b is still the caller's. A non-nil next, the
// head's burst receive, runs after the push, so the head never holds an
// item beyond the slab it is waiting to push, and before the rules run:
// a receive from a blocked sender readies the sender, the rules ready the
// executor worker that takes b, and of two goroutines readied on one
// processor the later runs first. Receiving after the rules put the
// sender first and cost open_poisson 7–9 % of its p50 sojourn (2-CPU VM).
func (r *dataflow) pushEntry(b *batch, next func()) bool {
	for {
		r.mu.Lock()
		switch {
		case r.cancelled:
			r.mu.Unlock()
			return false
		case r.entry.q.Len() < r.entry.room:
			r.push(r.entry, b)
			if next != nil {
				next()
			}
			r.advance(false, 0)
			return true
		}
		r.mu.Unlock()
		select {
		case <-r.headWake:
		case <-r.done:
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

// runEgress is the egress: the party that unpacks what the unpack rule
// leaves to it. Woken by the rule, it pops exit slabs and sends them with
// offer, which may park on a consumer that has let the output buffer
// fill, until the exit queue is empty; then it parks again. It returns,
// holding the send right for good, once nobody is sending and the run is
// cancelled or the exit queue is closed and empty.
func (r *dataflow) runEgress() {
	defer r.kick(r.exit.from) // take note of a cancellation, if that ended it
	done := r.done
	r.mu.Lock()
	for {
		if !r.sending {
			if r.cancelled || r.exit.closed && r.exit.q.Len() == 0 || isDone(r.done) {
				r.sending = true
				r.mu.Unlock()
				return
			}
			if b, ok := r.exit.q.Pop(); ok {
				r.sending = true
				r.mark(r.exit.from) // room opened behind the last stage
				r.advance(false, 0)
				for _, v := range b.items {
					if !offer(r.ctx, r.out, v) {
						break
					}
				}
				r.p.releaseBatch(b)
				r.mu.Lock()
				r.sending = false
				continue
			}
		}
		r.mu.Unlock()
		r.egressParks++
		select {
		case <-r.exitWake:
		case <-done:
			// Cancelled: the egress returns at once unless a stepper is
			// sending, and that stepper wakes it once it has stopped.
			done = nil
		}
		r.mu.Lock()
	}
}

// isDone polls a Done channel: an open channel's receive takes no lock.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
