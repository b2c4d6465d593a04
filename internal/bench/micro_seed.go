package bench

// Reference implementations of the seed's hot-path designs, kept so
// the allocation claims in BENCH_*.json stay measurable in-tree
// forever rather than requiring a checkout of the old commit:
//
//   - seedCalendar is the seed's event calendar — container/heap over
//     *seedEvent, one heap allocation per Schedule plus interface
//     boxing on every push/pop;
//   - benchSeedReorderStage is the seed's replicated-stage boundary —
//     one spawned goroutine (and closure) per item and a map[int]any
//     pending buffer in the reorderer.
//
// They are benchmark references only; nothing outside the micro suite
// uses them.

import (
	"container/heap"
	"context"
	"sync"
	"testing"
	"time"
)

type seedEvent struct {
	time float64
	seq  uint64
	fn   func()
}

type seedHeap []*seedEvent

func (h seedHeap) Len() int { return len(h) }
func (h seedHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h seedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedHeap) Push(x any)   { *h = append(*h, x.(*seedEvent)) }
func (h *seedHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type seedCalendar struct {
	now   float64
	seq   uint64
	queue seedHeap
}

func (c *seedCalendar) schedule(delay float64, fn func()) {
	heap.Push(&c.queue, &seedEvent{time: c.now + delay, seq: c.seq, fn: fn})
	c.seq++
}

func (c *seedCalendar) step() bool {
	if len(c.queue) == 0 {
		return false
	}
	ev := heap.Pop(&c.queue).(*seedEvent)
	c.now = ev.time
	ev.fn()
	return true
}

func benchSeedCalendar(b *testing.B) {
	var cal seedCalendar
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < calendarBatch; j++ {
			cal.schedule(float64(j&7), fn)
		}
		for cal.step() {
		}
	}
	b.ReportMetric(float64(b.N*calendarBatch)/b.Elapsed().Seconds(), "items/s")
}

// seedLimiter is the seed pipeline's limiter verbatim: mutex + cond,
// Broadcast on every release.
type seedLimiter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	limit int
	inUse int
}

func (l *seedLimiter) acquire() {
	l.mu.Lock()
	for l.inUse >= l.limit {
		l.cond.Wait()
	}
	l.inUse++
	l.mu.Unlock()
}

func (l *seedLimiter) release() {
	l.mu.Lock()
	l.inUse--
	l.cond.Broadcast()
	l.mu.Unlock()
}

// seedMeter is the seed pipeline's mutex-guarded accumulator shape.
type seedMeter struct {
	mu  sync.Mutex
	n   int
	sum float64
	max float64
}

func (m *seedMeter) record(d time.Duration) {
	m.mu.Lock()
	s := d.Seconds()
	m.n++
	m.sum += s
	if s > m.max {
		m.max = s
	}
	m.mu.Unlock()
}

// benchSeedReorderStage replays the seed pipeline's runStage faithfully:
// a dispatcher that spawns one goroutine (and closure) per item under a
// broadcast-on-release limiter, a mutex meter, the hard-coded 16-slot
// done channel, and a reorderer draining a map[int]any pending buffer.
func benchSeedReorderStage(b *testing.B) {
	const replicas = 8
	ctx := context.Background()
	type seedItem struct {
		seq int
		v   any
	}
	in := make(chan seedItem, 256)
	out := make(chan seedItem, 64)
	done := make(chan seedItem, 16)
	lim := &seedLimiter{limit: replicas}
	lim.cond = sync.NewCond(&lim.mu)
	met := &seedMeter{}

	reordered := make(chan struct{})
	go func() { // reorderer, as seeded: map pending buffer
		defer close(reordered)
		pending := map[int]any{}
		next := 0
		for it := range done {
			pending[it.seq] = it.v
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				select {
				case out <- seedItem{next, v}:
					next++
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	go func() { // dispatcher, as seeded: goroutine per item
		var workers sync.WaitGroup
		for {
			var it seedItem
			var ok bool
			select {
			case it, ok = <-in:
			case <-ctx.Done():
				ok = false
			}
			if !ok {
				break
			}
			lim.acquire()
			workers.Add(1)
			go func(it seedItem) {
				defer workers.Done()
				defer lim.release()
				t0 := time.Now()
				v := it.v // identity stage function
				met.record(time.Since(t0))
				select {
				case done <- seedItem{it.seq, v}:
				case <-ctx.Done():
				}
			}(it)
		}
		workers.Wait()
		close(done)
		<-reordered
		close(out)
	}()

	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			in <- seedItem{seq: i}
		}
		close(in)
	}()
	count := 0
	for range out {
		count++
	}
	if count != b.N {
		b.Fatalf("lost items: %d of %d", count, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
}
