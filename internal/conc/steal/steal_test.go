package steal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDequeLIFOAndStealFIFO(t *testing.T) {
	var d Deque
	for i := 0; i < 10; i++ {
		i := i
		if !d.Push(Task{Fn: func(any) {}, Arg: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Owner pops newest first.
	if tk, ok := d.Pop(); !ok || tk.Arg.(int) != 9 {
		t.Fatalf("pop = %v, %v", tk.Arg, ok)
	}
	// A thief takes half from the head: the oldest (9+1)/2 = 5 tasks.
	buf := make([]Task, dequeCap/2)
	k := d.stealHalf(buf)
	if k != 5 {
		t.Fatalf("stole %d", k)
	}
	for i := 0; i < k; i++ {
		if buf[i].Arg.(int) != i {
			t.Fatalf("stolen[%d] = %v", i, buf[i].Arg)
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len after steal = %d", d.Len())
	}
}

func TestDequeFullPush(t *testing.T) {
	var d Deque
	for i := 0; i < dequeCap; i++ {
		if !d.Push(Task{Fn: func(any) {}}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if d.Push(Task{Fn: func(any) {}}) {
		t.Fatal("push beyond capacity succeeded")
	}
}

func TestExecutorRunsEverySubmittedTask(t *testing.T) {
	e := New(4)
	const tasks = 10000
	var done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(tasks)
	fn := func(arg any) {
		done.Add(int64(arg.(int)))
		wg.Done()
	}
	want := int64(0)
	for i := 0; i < tasks; i++ {
		want += int64(i)
		e.Submit(Task{Fn: fn, Arg: i})
	}
	wg.Wait()
	e.Close()
	if done.Load() != want {
		t.Fatalf("sum = %d, want %d", done.Load(), want)
	}
	st := e.Stats()
	if st.Injects != tasks {
		t.Fatalf("injects = %d", st.Injects)
	}
	if st.Pops+st.Grabbed == 0 {
		t.Fatal("no work ever reached a worker")
	}
}

func TestExecutorConcurrentSubmitters(t *testing.T) {
	e := New(3)
	defer e.Close()
	const producers, each = 8, 500
	var done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(producers * each)
	fn := func(any) {
		done.Add(1)
		wg.Done()
	}
	var start sync.WaitGroup
	start.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			start.Done()
			start.Wait()
			for i := 0; i < each; i++ {
				e.Submit(Task{Fn: fn})
			}
		}()
	}
	wg.Wait()
	if done.Load() != producers*each {
		t.Fatalf("done = %d", done.Load())
	}
}

func TestExecutorBlockedTaskDoesNotStallSiblings(t *testing.T) {
	// One task blocks on a channel only the test drains; the remaining
	// workers must keep executing. This is the liveness shape the
	// pipeline relies on: stage tasks may block sending downstream,
	// and the drain always comes from a plain goroutine.
	e := New(2)
	defer e.Close()
	gate := make(chan struct{})
	blocked := make(chan struct{})
	e.Submit(Task{Fn: func(any) {
		close(blocked)
		<-gate
	}})
	<-blocked
	var done atomic.Int64
	var wg sync.WaitGroup
	const tasks = 100
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		e.Submit(Task{Fn: func(any) {
			done.Add(1)
			wg.Done()
		}})
	}
	wg.Wait()
	close(gate)
	if done.Load() != tasks {
		t.Fatalf("done = %d with one worker blocked", done.Load())
	}
}

func TestExecutorCloseDrainsQueuedTasks(t *testing.T) {
	e := New(2)
	var done atomic.Int64
	slow := func(any) {
		time.Sleep(time.Millisecond)
		done.Add(1)
	}
	const tasks = 50
	for i := 0; i < tasks; i++ {
		e.Submit(Task{Fn: slow})
	}
	e.Close()
	if done.Load() != tasks {
		t.Fatalf("Close returned with %d of %d tasks done", done.Load(), tasks)
	}
}

func TestExecutorStealHappensUnderImbalance(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 1 {
		t.Skip("no CPU")
	}
	// Many quick tasks through few workers: batch grabs load one
	// worker's deque and its siblings relieve it. On a 1-CPU machine
	// steals still happen — goroutine interleaving, not parallelism,
	// drives them — but assert only that the counters are consistent,
	// not a specific steal count.
	e := New(4)
	var wg sync.WaitGroup
	const tasks = 20000
	wg.Add(tasks)
	fn := func(any) { wg.Done() }
	for i := 0; i < tasks; i++ {
		e.Submit(Task{Fn: fn})
	}
	wg.Wait()
	e.Close()
	st := e.Stats()
	if st.Grabbed+st.Pops < tasks/2 {
		t.Fatalf("counters inconsistent: %v", st)
	}
}

func TestDefaultIsSharedAndSized(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default not a singleton")
	}
	if a.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default workers = %d, GOMAXPROCS = %d", a.Workers(), runtime.GOMAXPROCS(0))
	}
}

// TestNoSpillForWorkNotYetGrabbed: the stall probe must tell a wedged
// fleet from an idle one. Non-blocking tasks arrive one at a time after
// pauses of up to three monitor ticks — the pattern of a light or bursty
// pipeline — so many ticks sample a fleet that has completed nothing
// since the tick before, and some of them catch a task that is
// submitted and not yet grabbed. That is not a stall: no worker is stuck
// inside anything. The pauses spin through the scheduler rather than
// sleep, which keeps the monitor's timer on its nominal tick.
func TestNoSpillForWorkNotYetGrabbed(t *testing.T) {
	e := New(2)
	defer e.Close()
	const tasks = 10000
	done := make(chan struct{}, 1)
	task := Task{Fn: func(any) { done <- struct{}{} }}
	rnd := uint64(1)
	for i := 0; i < tasks; i++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		gap := time.Duration(rnd>>33) % (3 * monitorTick)
		for t0 := time.Now(); time.Since(t0) < gap; {
			runtime.Gosched()
		}
		e.Submit(task)
		<-done
	}
	if st := e.Stats(); st.Spills != 0 {
		t.Fatalf("%d spill workers injected under %d non-blocking tasks: %v", st.Spills, tasks, st)
	}
}

// TestSpillRunsQueuedTaskBehindWedgedFleet: with both workers of a
// two-worker set blocked inside tasks, a third task is run by a spill
// worker within a few ticks.
func TestSpillRunsQueuedTaskBehindWedgedFleet(t *testing.T) {
	e := New(2)
	defer e.Close()
	gate := make(chan struct{})
	defer close(gate)
	var inside sync.WaitGroup
	inside.Add(2)
	for i := 0; i < 2; i++ {
		e.Submit(Task{Fn: func(any) {
			inside.Done()
			<-gate
		}})
	}
	inside.Wait()
	ran := make(chan struct{})
	start := time.Now()
	e.Submit(Task{Fn: func(any) { close(ran) }})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("queued task never ran behind a wedged fleet")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("spill took %v, want under 50ms", d)
	}
	if st := e.Stats(); st.Spills == 0 {
		t.Fatalf("task ran but no spill was counted: %v", st)
	}
}
