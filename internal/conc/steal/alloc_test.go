package steal

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Tasks are values and every queue is a fixed or pre-grown array, so
// moving a task — owner push→pop, a thief's steal-half, Submit through
// the inject ring to a worker — allocates nothing.

const allocBatch = 64 // tasks per measured cycle

// wantZeroAlloc runs cycle once to grow the buffers, then measures it.
func wantZeroAlloc(t *testing.T, cycle func()) {
	t.Helper()
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("%v allocations per %d tasks, want 0", a, allocBatch)
	}
}

func TestDequePushPopZeroAlloc(t *testing.T) {
	var dq Deque
	task := Task{Fn: func(any) {}}
	wantZeroAlloc(t, func() {
		for j := 0; j < allocBatch; j++ {
			dq.Push(task)
		}
		for j := 0; j < allocBatch; j++ {
			dq.Pop()
		}
	})
}

func TestDequeStealHalfZeroAlloc(t *testing.T) {
	var victim Deque
	var buf [allocBatch]Task
	task := Task{Fn: func(any) {}}
	wantZeroAlloc(t, func() {
		for j := 0; j < allocBatch; j++ {
			victim.Push(task)
		}
		for victim.stealHalf(buf[:]) > 0 {
		}
	})
}

func TestSubmitZeroAlloc(t *testing.T) {
	ex := New(2)
	defer ex.Close()
	var done atomic.Int64
	task := Task{Fn: func(any) { done.Add(1) }}
	want := int64(0)
	wantZeroAlloc(t, func() {
		for j := 0; j < allocBatch; j++ {
			ex.Submit(task)
		}
		want += allocBatch
		for done.Load() != want {
			runtime.Gosched()
		}
	})
}
