package conc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// inUse reads the number of currently held slots.
func inUse(l *Limiter) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse
}

func TestLimiterCeiling(t *testing.T) {
	l := NewLimiter(3)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Acquire()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			l.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d over limit 3", p)
	}
	if inUse(l) != 0 {
		t.Fatalf("inUse = %d after drain", inUse(l))
	}
}

// TestLimiterGrowWakesAllWaiters is the regression test for the
// SetLimit/Release semantics: Release wakes one waiter (a release frees
// one slot), so a grow that legalises several waiters at once MUST
// broadcast — a Signal-based SetLimit strands all but one of them until
// unrelated releases trickle in, which deadlocks when no holder
// remains.
func TestLimiterGrowWakesAllWaiters(t *testing.T) {
	l := NewLimiter(1)
	l.Acquire() // occupy the only slot
	const waiters = 8
	var entered sync.WaitGroup
	var admitted atomic.Int64
	for i := 0; i < waiters; i++ {
		entered.Add(1)
		go func() {
			l.Acquire()
			admitted.Add(1)
			entered.Done()
		}()
	}
	// Let every goroutine reach the wait loop.
	for inUse(l) != 1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	// Grow with NO release: only SetLimit's broadcast can admit them.
	l.SetLimit(waiters + 1)
	done := make(chan struct{})
	go func() { entered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("grow stranded waiters: %d of %d admitted", admitted.Load(), waiters)
	}
}

// TestLimiterShrinkGrowChurn hammers SetLimit against a pool of
// workers: no deadlock, and the limiter drains to zero.
func TestLimiterShrinkGrowChurn(t *testing.T) {
	l := NewLimiter(4)
	const items = 2000
	var processed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for processed.Add(1) <= items {
				l.Acquire()
				l.Release()
			}
		}()
	}
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		limits := []int{1, 8, 2, 16, 1, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				l.SetLimit(limits[i%len(limits)])
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	resizer.Wait()
	if inUse(l) != 0 {
		t.Fatalf("inUse = %d after drain", inUse(l))
	}
}

func TestLimiterShrinkTakesEffect(t *testing.T) {
	l := NewLimiter(4)
	for i := 0; i < 4; i++ {
		l.Acquire()
	}
	l.SetLimit(1)
	acquired := make(chan struct{})
	go func() {
		l.Acquire()
		close(acquired)
	}()
	// Three releases leave 1 in use — at the new limit, so the waiter
	// must stay blocked.
	for i := 0; i < 3; i++ {
		l.Release()
	}
	select {
	case <-acquired:
		t.Fatal("acquired above shrunken limit")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release() // now 0 in use: the waiter gets the single slot
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never admitted after drain")
	}
	l.Release()
}

func TestMeter(t *testing.T) {
	var m Meter
	if c, mean, max := m.Snapshot(); c != 0 || mean != 0 || max != 0 {
		t.Fatalf("zero meter snapshot = %d,%v,%v", c, mean, max)
	}
	m.Record(2 * time.Millisecond)
	m.Record(4 * time.Millisecond)
	m.Record(3 * time.Millisecond)
	c, mean, max := m.Snapshot()
	if c != 3 || mean != 3*time.Millisecond || max != 4*time.Millisecond {
		t.Fatalf("snapshot = %d,%v,%v", c, mean, max)
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	c, _, max := m.Snapshot()
	if c != 8000 {
		t.Fatalf("count = %d", c)
	}
	if max != 8*time.Microsecond {
		t.Fatalf("max = %v", max)
	}
}

// TestLimiterTryAcquire: TryAcquire takes a free slot or refuses, never
// waits, sees SetLimit at once, and after a shrink below the number of
// holders keeps refusing until enough of them have released.
func TestLimiterTryAcquire(t *testing.T) {
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("TryAcquire refused a free slot")
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire took a third slot at limit 2")
	}
	l.SetLimit(3)
	if !l.TryAcquire() {
		t.Fatal("TryAcquire refused the slot a grow opened")
	}
	l.SetLimit(1) // three holders, limit 1
	for held := 3; held > 1; held-- {
		if l.TryAcquire() {
			t.Fatalf("TryAcquire succeeded with %d holders at limit 1", held)
		}
		l.Release()
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire succeeded with 1 holder at limit 1")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire refused after the shrunk limiter drained")
	}
	if got := inUse(l); got != 1 {
		t.Fatalf("inUse = %d, want 1", got)
	}
	// It shares the slots with blocking Acquire.
	admitted := make(chan struct{})
	go func() {
		l.Acquire()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("Acquire got a slot TryAcquire holds")
	case <-time.After(10 * time.Millisecond):
	}
	l.Release()
	<-admitted
	l.Release()
}
