// Slabs and granularity: the unit that crosses every stage boundary,
// and the knob that sizes it (the paper's central knob, applied to
// goroutines and channels instead of grid transfers).
//
// Every boundary carries a *batch — a pooled slab of consecutively-
// sequenced items. Every boundary cost (channel send/receive, limiter
// acquire/release, executor handoff, reorder-ring bookkeeping, drainer
// wake-up) is paid once per slab and amortised over its items, which is
// exactly the fixed-overhead amortisation argument the cost model's
// BatchOverhead term captures (internal/model). Grain 1, the default,
// is a slab of one: the same path, paying the boundary per item.
//
// Invariants:
//
//   - slabs are formed at the head (and re-formed only on bridge edges,
//     see edgegrain.go); every stage maps one input slab to one output
//     slab of the same index, first sequence number, and length, so
//     slab boundaries stay aligned along every path of the stage graph
//     and a fan-in zips its in-streams slab-by-slab;
//   - the head flushes a slab when it reaches the current grain
//     (SetGrain, readable while running — the adaptive controller's
//     second actuator dimension) or when the oldest item in it has
//     lingered for the linger timeout, so a trickle input keeps bounded
//     latency; the linger clock starts only when a slab is opened and
//     is not already full, so a slab of one never touches the timer;
//   - slabs are reference-counted (a broadcast shares one among all
//     out-edges) and recycled through a sync.Pool, so the steady-state
//     boundary performs no per-item and no per-slab heap allocation;
//   - ordered output does not depend on grain or linger: stages process
//     a slab's items in sequence order and slabs are restored to index
//     order at every boundary.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/ring"
)

// DefaultLinger bounds how long a partial batch may wait at the head
// for more input before it is flushed anyway.
const DefaultLinger = time.Millisecond

// batch is a pooled slab of consecutively-sequenced items crossing a
// stage boundary together. seq is the sequence number of items[0];
// idx counts slabs 0,1,2,… in head order (the reorder key). refs is
// the number of consumers still holding the slab — a broadcast hands
// the same slab to every out-edge. eager marks a slab flushed by
// linger, end-of-input, or an idle input: every stage propagates it,
// and a coarsening per-edge boundary (edgegrain.go) flushes its
// accumulator on seeing it instead of waiting to fill — which keeps
// the head's linger the dominant batching wait even when a downstream
// boundary re-slabs to a larger grain.
type batch struct {
	idx   int
	seq   int
	items []any
	refs  int32
	eager bool
}

// newBatch takes a slab from the pool (or allocates the first time a
// fresh high-water mark is reached) and resets it for one consumer.
func (p *Pipeline) newBatch(idx, seq int) *batch {
	b, _ := p.slabs.Get().(*batch)
	if b == nil {
		b = &batch{}
	}
	b.idx, b.seq = idx, seq
	b.items = b.items[:0]
	b.eager = false
	atomic.StoreInt32(&b.refs, 1)
	return b
}

// releaseBatch drops one reference and recycles the slab when the last
// consumer is done. Items are zeroed so the pool does not retain user
// values.
func (p *Pipeline) releaseBatch(b *batch) {
	if atomic.AddInt32(&b.refs, -1) != 0 {
		return
	}
	clear(b.items)
	b.items = b.items[:0]
	p.slabs.Put(b)
}

// EnableBatch sets the grain and linger before Run: items cross
// boundaries in slabs of up to grain items, flushed early when the
// oldest item has waited linger (linger <= 0 picks DefaultLinger).
// The grain is adjustable while running via SetGrain.
func (p *Pipeline) EnableBatch(grain int, linger time.Duration) error {
	if grain < 1 {
		return fmt.Errorf("pipeline: EnableBatch grain %d below 1", grain)
	}
	if linger <= 0 {
		linger = DefaultLinger
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ran {
		return fmt.Errorf("pipeline: EnableBatch after Run")
	}
	p.linger.Store(int64(linger))
	return p.SetGrain(grain)
}

// SetGrain adjusts the slab size items travel in (minimum 1). Safe to
// call while the pipeline runs — the head applies it to the slab it is
// filling — which makes grain a live actuator dimension alongside
// SetReplicas. Every boundary moves together: on a per-edge pipeline
// (EnableBatchEdges) that is the uniform vector, which is always valid.
func (p *Pipeline) SetGrain(n int) error {
	if n < 1 {
		return fmt.Errorf("pipeline: SetGrain(%d) below 1", n)
	}
	for b := range p.grains {
		p.grains[b].Store(int64(n))
	}
	return nil
}

// Grain returns the head's current slab size (1 unless EnableBatch,
// EnableBatchEdges, or SetGrain raised it).
func (p *Pipeline) Grain() int { return int(p.grains[0].Load()) }

// runHead is the head batcher: it sequence-tags the inputs and packs
// them into slabs, flushed on grain or linger. This is the only place
// an item ever waits for more input.
func (p *Pipeline) runHead(ctx context.Context, inputs <-chan any, head chan<- *batch, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(head)
	seq, idx := 0, 0
	var cur *batch
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	var timerC <-chan time.Time // non-nil while cur's linger clock runs
	flush := func(eager bool) bool {
		cur.eager = eager
		select {
		case head <- cur:
		case <-ctx.Done():
			return false
		}
		cur = nil
		timerC = nil
		idx++
		return true
	}
	for {
		select {
		case v, ok := <-inputs:
			if !ok {
				if cur != nil {
					flush(true)
				}
				return
			}
			if cur == nil {
				cur = p.newBatch(idx, seq)
			}
			cur.items = append(cur.items, v)
			seq++
			switch {
			case len(cur.items) >= p.Grain():
				if timerC != nil {
					timer.Stop()
				}
				// A grain-full flush with nothing else queued may be
				// the last traffic for a while; marking it eager lets
				// coarsening downstream boundaries drain instead of
				// parking its items until the next input burst.
				if !flush(len(inputs) == 0) {
					return
				}
			case timerC == nil:
				// The slab was just opened and is not full: its oldest
				// item starts the linger clock.
				timer.Reset(time.Duration(p.linger.Load()))
				timerC = timer.C
			}
		case <-timerC:
			if !flush(true) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// slabSink restores slab-index order at a replicated stage's output and
// hands the ordered stream downstream. It has two sides. Executor tasks
// put their result slab into the reorder ring without ever blocking
// (executor workers must stay runnable — see runStage). The stage's
// drainer goroutine (drain) pulls slabs in index order, blocking there
// instead, and owns everything after the ring: the sends, the re-slab
// accumulator, and the limiter release. notify is a buffered(1) edge
// trigger: a put that finds it full loses nothing, because the drainer
// re-scans the ring before sleeping.
//
// When the stage's out-edge is a regraining boundary (EnableBatchEdges
// on a bridge edge), the drainer re-slabs the ordered stream to the
// edge's own grain: items of each in-order slab are appended to an
// accumulator that flushes whenever it reaches the edge grain, when an
// eager slab passes (linger/end-of-input pressure propagated from the
// head), and at stream close (flushTail). The re-slabbed stream gets
// fresh contiguous indices, so the downstream reorder ring sees exactly
// the 0,1,2,… it requires.
type slabSink struct {
	mu      sync.Mutex
	pending ring.Reorder[*batch]
	total   int // slabs submitted in all; -1 while the dispatcher runs
	notify  chan struct{}

	// Drainer-owned from here on.
	ctx     context.Context
	out     chan<- *batch
	p       *Pipeline
	grain   *atomic.Int64 // non-nil: re-slab to this edge grain
	acc     *batch        // regrain accumulator
	nextIdx int           // next re-slabbed slab index on this edge
	nextSeq int           // first sequence number of the next re-slabbed slab
	// dead latches at the first slab the drainer does not hand on — a
	// failed task's tombstone, or an in-order send lost to cancellation
	// (a select with both the send and ctx.Done ready picks randomly) —
	// so the sink can never drop slab N yet deliver N+1: failure and
	// cancellation must truncate the ordered stream, never puncture it.
	dead bool
}

// put files the result of slab idx; a nil b is the tombstone of a
// failed task, keeping the index sequence gap-free.
func (s *slabSink) put(idx int, b *batch) {
	s.mu.Lock()
	s.pending.Put(idx, b)
	s.mu.Unlock()
	s.wake()
}

// close tells the sink how many slabs were submitted in all, so the
// drainer can stop once it has seen every one of them.
func (s *slabSink) close(total int) {
	s.mu.Lock()
	s.total = total
	s.mu.Unlock()
	s.wake()
}

func (s *slabSink) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next blocks until the next in-index result is available; ok is false
// once the dispatcher has closed the sink and every slab it submitted
// has been returned.
func (s *slabSink) next() (b *batch, ok bool) {
	for {
		s.mu.Lock()
		_, b, ok = s.pending.PopNext()
		done := !ok && s.pending.Next() == s.total
		s.mu.Unlock()
		if ok || done {
			return b, ok
		}
		<-s.notify
	}
}

// drain is the stage's drainer loop: the only place the stage blocks on
// its downstream boundary. Each slab's in-flight token is returned once
// the slab has been handed on (or dropped), which is what makes the
// replica limit an end-to-end backpressure bound.
func (s *slabSink) drain(lim *conc.Limiter) {
	defer close(s.out)
	for {
		b, ok := s.next()
		if !ok {
			s.flushTail()
			return
		}
		switch {
		case b == nil:
			// A failed task's tombstone: nothing after the gap may
			// leave the stage, or the output would not be a prefix.
			s.dead = true
		case s.dead:
			s.p.releaseBatch(b)
		case s.grain == nil:
			s.send(b)
		default:
			s.regrain(b)
		}
		lim.Release()
	}
}

// send hands one slab downstream; a send lost to cancellation releases
// the slab and latches dead.
func (s *slabSink) send(b *batch) {
	select {
	case s.out <- b:
	case <-s.ctx.Done():
		s.p.releaseBatch(b)
		s.dead = true
	}
}

// regrain folds one in-order slab into the accumulator, flushing at the
// edge grain and on eager pressure.
func (s *slabSink) regrain(nb *batch) {
	defer s.p.releaseBatch(nb)
	tgt := int(s.grain.Load())
	for _, v := range nb.items {
		if s.acc == nil {
			s.acc = s.p.newBatch(s.nextIdx, s.nextSeq)
		}
		s.acc.items = append(s.acc.items, v)
		if len(s.acc.items) >= tgt {
			s.flushAcc(nb.eager)
			if s.dead {
				return
			}
		}
	}
	if nb.eager && s.acc != nil {
		s.flushAcc(true)
	}
}

// flushAcc emits the accumulator downstream.
func (s *slabSink) flushAcc(eager bool) {
	b := s.acc
	s.acc = nil
	b.eager = eager
	s.nextIdx++
	s.nextSeq += len(b.items)
	s.send(b)
}

// flushTail drains a partial accumulator at stream close, so an item
// count not divisible by the edge grain still delivers every item. A
// dead sink drops the tail instead — it already truncated the stream.
func (s *slabSink) flushTail() {
	switch {
	case s.acc == nil:
	case s.dead:
		s.p.releaseBatch(s.acc)
		s.acc = nil
	default:
		s.flushAcc(true)
	}
}
