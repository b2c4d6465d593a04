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

func TestMeter(t *testing.T) {
	var m Meter
	m.RecordN(0, time.Second) // no items: nothing recorded
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
