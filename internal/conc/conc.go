// Package conc provides the small concurrency primitives shared by the
// live skeletons (pipeline and farm): a resizable concurrency limiter —
// a stage's replica count is the number of its slabs in flight on the
// shared executor (internal/conc/steal), not a pool of goroutines —
// and an atomic service-time meter. Both are tuned for the per-item hot
// path: the limiter wakes exactly one waiter per release instead of
// broadcasting to all of them, and the meter records a sample with
// three atomic operations instead of taking a mutex. Apportion is the
// one worker split, bottleneck first: the live controller
// (internal/adaptive/liveadapt) divides its worker budget over a
// pipeline's stages with it, and workload.RunLive its first deployment.
package conc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Limiter is a resizable concurrency limiter: Acquire blocks while the
// number of holders is at or above the current limit. SetLimit may
// shrink or grow the limit while goroutines hold or wait; shrinking
// takes effect as holders release, growing wakes every waiter so all
// newly legal slots fill at once.
type Limiter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	limit int
	inUse int
}

// NewLimiter returns a limiter admitting n concurrent holders.
func NewLimiter(n int) *Limiter {
	l := &Limiter{limit: n}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Acquire blocks until a slot is free, then takes it.
func (l *Limiter) Acquire() {
	l.mu.Lock()
	for l.inUse >= l.limit {
		l.cond.Wait()
	}
	l.inUse++
	l.mu.Unlock()
}

// TryAcquire takes a slot if one is free and reports whether it did. It
// never waits: a caller that must not block (the pipeline's dataflow
// step) tries again when a Release or a SetLimit may have changed the
// answer. After a shrink below the number of holders it keeps refusing
// until enough of them have released.
func (l *Limiter) TryAcquire() bool {
	l.mu.Lock()
	ok := l.inUse < l.limit
	if ok {
		l.inUse++
	}
	l.mu.Unlock()
	return ok
}

// Release frees a slot, waking one waiter. Waking exactly one is
// enough: a release frees exactly one slot, and every waiter re-checks
// the limit under the mutex, so a waiter woken into a shrunken limit
// simply waits again. Resize wake-ups are SetLimit's job.
func (l *Limiter) Release() {
	l.mu.Lock()
	l.inUse--
	l.cond.Signal()
	l.mu.Unlock()
}

// SetLimit resizes the limiter. It must broadcast, not signal: growing
// from n to n+k legalises k waiters at once, and waking only one would
// strand the rest until the next Release dribbles them in.
func (l *Limiter) SetLimit(n int) {
	l.mu.Lock()
	l.limit = n
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Limit returns the current limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Meter is a goroutine-safe service-time accumulator with atomic
// fields: count, sum, and max of recorded durations. The zero value is
// ready for use.
type Meter struct {
	count atomic.Int64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

// Record adds one sample.
func (m *Meter) Record(d time.Duration) {
	ns := int64(d)
	m.count.Add(1)
	m.sumNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// RecordN adds n samples that completed together in total time d — the
// batched boundary's one-call-per-batch counterpart of Record. The
// count grows by n and the sum by d, so per-item means diffed from
// Totals stay correct at any grain; the max is compared against the
// batch's per-item mean, because the batch path cannot see individual
// item times and charging the whole batch duration as one sample's max
// would make larger grains look pathologically slow.
func (m *Meter) RecordN(n int64, d time.Duration) {
	if n <= 0 {
		return
	}
	m.count.Add(n)
	m.sumNs.Add(int64(d))
	per := int64(d) / n
	for {
		cur := m.maxNs.Load()
		if per <= cur || m.maxNs.CompareAndSwap(cur, per) {
			return
		}
	}
}

// Totals returns the cumulative sample count and summed service time.
// Samplers that want windowed means (the live adaptive sensor) diff
// two Totals readings instead of re-deriving them from the lossy
// rounded mean Snapshot reports. The two loads are individually atomic
// but not mutually consistent — fine for monitoring reads.
func (m *Meter) Totals() (count int64, sum time.Duration) {
	return m.count.Load(), time.Duration(m.sumNs.Load())
}

// Snapshot returns the sample count, mean, and max. The three loads are
// individually atomic but not mutually consistent — fine for the
// monitoring read-side, which only ever sees a slightly stale mean.
func (m *Meter) Snapshot() (count int, mean, max time.Duration) {
	n := m.count.Load()
	if n == 0 {
		return 0, 0, 0
	}
	return int(n), time.Duration(m.sumNs.Load() / n), time.Duration(m.maxNs.Load())
}
