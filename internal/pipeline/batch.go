// Slabs and granularity: the unit that crosses every stage boundary,
// and the knob that sizes it (the paper's central knob, applied to
// executor tasks and in-process queues instead of grid transfers).
//
// Every boundary carries a *batch — a pooled slab of consecutively-
// sequenced items. Every boundary cost (the in-flight token, the executor
// handoff, the reorder ring, the edge queue, the step under the run's
// mutex) is paid once per slab and amortised over its items, which is
// exactly the fixed-overhead amortisation argument the cost model's
// BatchOverhead term captures (internal/model). Grain 1, the default,
// is a slab of one: the same path, paying the boundary per item.
//
// Invariants:
//
//   - there is one grain, the head's: slabs are formed only at the
//     head, and every stage maps one input slab to one output slab of
//     the same index, first sequence number, and length, so slab
//     boundaries stay aligned along every path of the stage graph and a
//     fan-in zips its in-streams slab-by-slab;
//   - the head flushes a slab when it reaches the grain (SetGrain,
//     readable while running — the adaptive controller's second
//     actuator dimension) or when it has lingered for the linger
//     timeout, so a trickle input keeps bounded latency. The head takes
//     its input in bursts — it parks only when the channel is dry and
//     otherwise drains it with non-blocking receives — and the linger
//     clock starts when it parks holding a partial slab, once per slab:
//     while a burst lasts the next item is already there, so the slab's
//     oldest item is at most a burst older than its clock, and neither
//     a slab of one nor a saturated input ever touches the timer;
//   - slabs are reference-counted (a split shares one among all its
//     out-edges) and recycled through a sync.Pool, so the steady-state
//     boundary performs no per-item and no per-slab heap allocation;
//   - ordered output does not depend on grain or linger: stages process
//     a slab's items in sequence order and slabs are restored to index
//     order at every boundary.
package pipeline

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultLinger bounds how long a partial batch may wait at the head
// for more input before it is flushed anyway.
const DefaultLinger = time.Millisecond

// batch is a pooled slab of consecutively-sequenced items crossing a
// stage boundary together. seq is the sequence number of items[0];
// idx counts slabs 0,1,2,… in head order (the reorder key). refs is
// the number of consumers still holding the slab — a split hands the
// same slab to every out-edge.
type batch struct {
	idx   int
	seq   int
	items []any
	refs  int32
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
	atomic.StoreInt32(&b.refs, 1)
	if p.slabHook != nil {
		p.slabHook(1)
	}
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
	if p.slabHook != nil {
		p.slabHook(-1)
	}
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
	p.grain.Store(int64(grain))
	return nil
}

// Grain returns the current grain: the most items the head packs into
// one slab.
func (p *Pipeline) Grain() int { return int(p.grain.Load()) }

// SetGrain changes the grain (minimum 1) while the pipeline runs; the
// head applies it from the next item it takes. It is the one grain
// actuator: liveadapt's grain walker drives it.
func (p *Pipeline) SetGrain(n int) error {
	if n < 1 {
		return fmt.Errorf("pipeline: SetGrain(%d) below 1", n)
	}
	p.grain.Store(int64(n))
	return nil
}
