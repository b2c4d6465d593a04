// Package conc provides the small concurrency primitives shared by the
// live skeletons (pipeline and farm): an atomic service-time meter, which
// records a sample with three atomic operations instead of taking a
// mutex, and Apportion, the one worker split, bottleneck first: the live
// controller (internal/adaptive/liveadapt) divides its worker budget over
// a pipeline's stages with it, and workload.RunLive its first deployment.
// A stage's replica count is the number of its slabs in flight on the
// shared executor (internal/conc/steal), which the pipeline counts itself
// under its run mutex; the blocking Limiter here is no longer on the live
// path, and only the benchmark's probe still measures it.
package conc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Limiter is a counting semaphore: Acquire blocks while the number of
// holders is at the limit.
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

// Release frees a slot, waking one waiter: a release frees exactly one
// slot, so waking more would only send them back to wait.
func (l *Limiter) Release() {
	l.mu.Lock()
	l.inUse--
	l.cond.Signal()
	l.mu.Unlock()
}

// Meter is a goroutine-safe service-time accumulator with atomic
// fields: count, sum, and max of recorded durations. The zero value is
// ready for use. The live pipeline records every slab of a stage and
// times those of ≥ 4 µs and every 8th (pipeline.TestStageClockSampling).
type Meter struct {
	count atomic.Int64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

// Record adds one sample.
func (m *Meter) Record(d time.Duration) { m.RecordN(1, d) }

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
