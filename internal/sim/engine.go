// Package sim implements the deterministic discrete-event simulation
// engine that drives every grid experiment in virtual time.
//
// The engine is an event calendar tuned for allocation-free steady
// state: events live in a slab of pooled slots recycled through a
// free list, and the calendar itself is an inlined binary heap of slot
// indexes ordered by (time, sequence) — no container/heap interface
// boxing, no per-Schedule heap allocation. Sequence numbers break ties
// so that two events scheduled for the same instant fire in scheduling
// order, which makes every run bit-for-bit reproducible — a property
// the experiment harness depends on.
//
// Handles returned by Schedule/At carry a generation counter: once an
// event fires (or its cancelled slot is collected) the slot is recycled
// and the generation bumped, so a stale handle can never cancel the
// slot's next occupant.
package sim

import (
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. The zero value is ready to use
// with the clock at 0.
type Engine struct {
	now  float64
	seq  uint64
	slab []slot
	free []int32 // recycled slot indexes
	heap []int32 // binary heap of slot indexes ordered by (time, seq)
}

// slot is the pooled storage of one scheduled event.
type slot struct {
	time      float64
	seq       uint64
	fn        func()    // either fn ...
	afn       func(any) // ... or afn(arg) runs at fire time
	arg       any
	gen       uint32
	cancelled bool
}

// Event is a handle to a scheduled callback, returned by Schedule/At so
// the caller can cancel it before it fires (e.g. a pending stage
// completion invalidated by a remap). It is a small value — copying it
// is free and never allocates. The zero Event is inert: Cancel and
// Cancelled are no-ops on it.
type Event struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled, or zero event is a no-op: the generation counter
// in the handle detects that the slot has moved on to a later event.
// Cancel is O(1); the cancelled slot is truly removed from the calendar
// and recycled when it surfaces at the head of the heap.
func (e Event) Cancel() {
	if e.eng == nil || e.idx < 0 || int(e.idx) >= len(e.eng.slab) {
		return
	}
	s := &e.eng.slab[e.idx]
	if s.gen != e.gen {
		return // slot recycled: this handle's event already fired or was collected
	}
	s.cancelled = true
	// Drop callback references eagerly so cancelled events do not pin
	// memory while they wait to surface from the heap.
	s.fn, s.afn, s.arg = nil, nil, nil
}

// Cancelled reports whether the event is cancelled and still occupies
// its calendar slot. Once the slot is collected (lazily, when the
// cancelled event surfaces) or the event has fired, it reports false.
func (e Event) Cancelled() bool {
	if e.eng == nil || e.idx < 0 || int(e.idx) >= len(e.eng.slab) {
		return false
	}
	s := &e.eng.slab[e.idx]
	return s.gen == e.gen && s.cancelled
}

// Pending reports whether the event is still scheduled to fire.
func (e Event) Pending() bool {
	if e.eng == nil || e.idx < 0 || int(e.idx) >= len(e.eng.slab) {
		return false
	}
	s := &e.eng.slab[e.idx]
	return s.gen == e.gen && !s.cancelled
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule queues fn to run after delay seconds of virtual time.
// It panics on negative delay or NaN.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t. It panics if t is in
// the past: the simulated grid never time-travels, and silently
// clamping would hide scheduling bugs in the executor.
func (e *Engine) At(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return e.schedule(t, fn, nil, nil)
}

// ScheduleArg queues fn(arg) to run after delay seconds. It is the
// allocation-free alternative to Schedule for hot paths: a caller can
// bind fn once and pass per-event state through arg (a pointer in an
// interface does not allocate), instead of building a fresh closure per
// event.
func (e *Engine) ScheduleArg(delay float64, fn func(arg any), arg any) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: ScheduleArg with invalid delay %v", delay))
	}
	return e.AtArg(e.now+delay, fn, arg)
}

// AtArg queues fn(arg) to run at absolute virtual time t; the argument
// variant of At, with the same validation.
func (e *Engine) AtArg(t float64, fn func(arg any), arg any) Event {
	if fn == nil {
		panic("sim: AtArg with nil callback")
	}
	return e.schedule(t, nil, fn, arg)
}

func (e *Engine) schedule(t float64, fn func(), afn func(any), arg any) Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: At(%v) before now=%v", t, e.now))
	}
	idx := e.alloc()
	s := &e.slab[idx]
	s.time = t
	s.seq = e.seq
	s.fn, s.afn, s.arg = fn, afn, arg
	s.cancelled = false
	e.seq++
	e.heapPush(idx)
	return Event{eng: e, idx: idx, gen: s.gen}
}

// alloc takes a slot from the free list, growing the slab only when
// every slot is in use.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slab = append(e.slab, slot{gen: 1})
	return int32(len(e.slab) - 1)
}

// collect recycles a slot: the generation bump invalidates every
// outstanding handle to it before it re-enters the free list.
func (e *Engine) collect(idx int32) {
	s := &e.slab[idx]
	s.gen++
	s.fn, s.afn, s.arg = nil, nil, nil
	s.cancelled = false
	e.free = append(e.free, idx)
}

// Step fires the next event. It reports false when the calendar is
// empty.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		s := &e.slab[idx]
		if s.cancelled {
			e.heapPop()
			e.collect(idx)
			continue
		}
		e.now = s.time
		fn, afn, arg := s.fn, s.afn, s.arg
		e.heapPop()
		// Recycle before firing so the callback can reuse the slot for
		// whatever it schedules next.
		e.collect(idx)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// RunUntil fires events with time <= t, then advances the clock to t
// (even if no event fired). Events scheduled exactly at t do fire.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now=%v", t, e.now))
	}
	for {
		tm, ok := e.peek()
		if !ok || tm > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// peek returns the time of the next non-cancelled event, lazily
// collecting cancelled ones.
func (e *Engine) peek() (float64, bool) {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		s := &e.slab[idx]
		if !s.cancelled {
			return s.time, true
		}
		e.heapPop()
		e.collect(idx)
	}
	return 0, false
}

// Reset returns the engine to its zero state — clock at 0, empty
// calendar — while keeping the slab, heap, and free-list capacity, so
// one engine can be reused across experiment repetitions without
// re-allocating its event storage. Every outstanding handle is
// invalidated (their slots' generations are bumped), so a pre-Reset
// Event can neither fire nor cancel anything scheduled afterwards.
func (e *Engine) Reset() {
	e.free = e.free[:0]
	for i := len(e.slab) - 1; i >= 0; i-- {
		s := &e.slab[i]
		s.gen++
		s.fn, s.afn, s.arg = nil, nil, nil
		s.cancelled = false
		e.free = append(e.free, int32(i))
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
}

// before orders slots by (time, seq): the calendar's total order.
func (e *Engine) before(a, b int32) bool {
	sa, sb := &e.slab[a], &e.slab[b]
	if sa.time != sb.time {
		return sa.time < sb.time
	}
	return sa.seq < sb.seq
}

// heapPush inserts a slot index, sifting up. Inlined binary heap: no
// interface dispatch on the hot path.
func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes the root, sifting down.
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && e.before(e.heap[r], e.heap[l]) {
			least = r
		}
		if !e.before(e.heap[least], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		i = least
	}
}

// Ticker invokes a callback at a fixed virtual-time period until
// stopped. The adaptivity engine's periodic trigger is a Ticker.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      func(now float64)
	next    Event
	stopped bool
}

// NewTicker starts a ticker firing every period seconds, first at
// now+period. It panics on non-positive period.
func NewTicker(e *Engine, period float64, fn func(now float64)) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

// tickerFire is the shared tick trampoline: one bound function for all
// tickers keeps each tick allocation-free.
func tickerFire(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn(t.engine.Now())
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.next = t.engine.ScheduleArg(t.period, tickerFire, t)
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
