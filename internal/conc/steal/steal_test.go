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
	if len(a.workers) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default workers = %d, GOMAXPROCS = %d", len(a.workers), runtime.GOMAXPROCS(0))
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

// TestNoSpillForYieldingTasks: both workers of a two-worker set stay
// inside tasks for twenty ticks with work queued, but yield all along —
// they wait for a processor, not for the executor — so nothing spills.
func TestNoSpillForYieldingTasks(t *testing.T) {
	e := New(2)
	defer e.Close()
	var inside sync.WaitGroup
	inside.Add(2)
	for i := 0; i < 2; i++ {
		e.Submit(Task{Fn: func(any) {
			inside.Done()
			for t0 := time.Now(); time.Since(t0) < 20*monitorTick; {
				e.Yield()
			}
		}})
	}
	inside.Wait()
	ran := make(chan struct{})
	e.Submit(Task{Fn: func(any) { close(ran) }})
	<-ran
	if st := e.Stats(); st.Spills != 0 {
		t.Fatalf("%d spill workers injected behind yielding tasks: %v", st.Spills, st)
	}
}

// wedge parks every fleet worker of e inside a task until the returned
// release is called.
func wedge(t *testing.T, e *Executor) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var inside sync.WaitGroup
	inside.Add(len(e.workers))
	for range e.workers {
		e.Submit(Task{Fn: func(any) {
			inside.Done()
			<-gate
		}})
	}
	inside.Wait()
	return func() { close(gate) }
}

// runOne submits a task and waits for it to run.
func runOne(t *testing.T, e *Executor) {
	t.Helper()
	ran := make(chan struct{})
	e.Submit(Task{Fn: func(any) { close(ran) }})
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("queued task never ran behind a wedged fleet")
	}
}

// waitLingering waits until n spill workers linger on e's idle list.
func waitLingering(t *testing.T, e *Executor, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		e.idleMu.Lock()
		got := 0
		for _, s := range e.idle {
			if s.spill {
				got++
			}
		}
		e.idleMu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spill workers lingering, want %d", got, n)
		}
	}
}

// TestSpillRunsQueuedTaskBehindWedgedFleet: with both workers of a
// two-worker set blocked inside tasks, a third task is run by a spill
// worker within a few ticks.
func TestSpillRunsQueuedTaskBehindWedgedFleet(t *testing.T) {
	e := New(2)
	defer e.Close()
	release := wedge(t, e)
	defer release()
	start := time.Now()
	runOne(t, e)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("spill took %v, want under 50ms", d)
	}
	if st := e.Stats(); st.Spills == 0 {
		t.Fatalf("task ran but no spill was counted: %v", st)
	}
}

// TestSpillWorkerLingersThenExits: behind a wedged fleet, the spill
// worker that ran one task waits on the idle list, the next task goes to
// it instead of to a new spill worker, and once the queues stay dry for
// the linger it exits. The linger is longer than the executor's so that
// a slow run of the test cannot outlast it between the two tasks.
func TestSpillWorkerLingersThenExits(t *testing.T) {
	e := newExecutor(2, 100*time.Millisecond)
	defer e.Close()
	before := runtime.NumGoroutine()
	release := wedge(t, e)
	defer release()
	runOne(t, e)
	waitLingering(t, e, 1)
	runOne(t, e)
	if st := e.Stats(); st.Spills != 1 {
		t.Fatalf("%d spill workers injected for two tasks inside one linger, want 1: %v", st.Spills, st)
	}
	// The spill worker's own count says when it has left; the goroutine
	// count alone could fall because any other goroutine exited.
	deadline := time.Now().Add(2 * time.Second)
	for ; e.spills.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d spill workers still counted live after the linger", e.spills.Load())
		}
	}
	for ; runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after the linger, %d before the spill", runtime.NumGoroutine(), before)
		}
	}
}

// TestWakeOnePrefersParkedFleet: park files a spill sleeper below every
// fleet sleeper, even one that parked before it, so a wake-up goes to a
// parked fleet worker while there is one, and only then to the newest
// lingering spill worker, whose own withdraw then finds it taken off and
// absorbs the wake.
func TestWakeOnePrefersParkedFleet(t *testing.T) {
	w := &sleeper{wake: make(chan struct{}, 1)}
	older := &sleeper{wake: make(chan struct{}, 1), spill: true}
	newer := &sleeper{wake: make(chan struct{}, 1), spill: true}
	e := &Executor{}
	e.park(older)
	e.park(w)
	e.park(newer)
	e.wakeOne()
	if w.listed || len(w.wake) != 1 || len(e.idle) != 2 {
		t.Fatal("the parked fleet worker was not woken")
	}
	if len(older.wake)+len(newer.wake) != 0 {
		t.Fatal("a spill worker was woken while a fleet worker was parked")
	}
	e.wakeOne()
	if newer.listed || len(newer.wake) != 1 || len(older.wake) != 0 || !older.listed {
		t.Fatal("with no fleet worker parked, the newest lingering spill worker was not the one woken")
	}
	if e.withdraw(newer) || len(newer.wake) != 0 {
		t.Fatal("withdraw of a woken spill worker did not absorb its wake")
	}
	if !e.withdraw(older) || older.listed || len(e.idle) != 0 {
		t.Fatal("withdraw of a listed spill worker did not take it off")
	}
}

// TestCloseWakesLingeringSpill: Close returns without waiting out a
// spill worker's linger (an hour here), and a spill worker that begins
// to linger after Close swept the idle list sees the stop in its
// re-check instead of waiting.
func TestCloseWakesLingeringSpill(t *testing.T) {
	e := newExecutor(2, time.Hour)
	release := wedge(t, e)
	runOne(t, e)
	waitLingering(t, e, 1)
	release()
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting out a lingering spill worker")
	}

	late := &Executor{}
	late.stop.Store(true)
	s := &sleeper{wake: make(chan struct{}, 1), spill: true}
	late.park(s)
	if late.recheck(s) || s.listed || len(late.idle) != 0 {
		t.Fatal("a spill worker lingering after Close did not withdraw")
	}
}

// TestSpillCapHoldsAtMaxSpill: with maxSpill spill workers live, a
// fleet wedged for two ticks in a row spills no more — sample reports
// false and the live count does not move — and one below the cap the
// next wedged tick spills. The executor is a goroutine-less literal: no
// worker, spill or monitor goroutine starts.
func TestSpillCapHoldsAtMaxSpill(t *testing.T) {
	e := &Executor{workers: []*worker{{}, {}}}
	e.workers[0].taskSeq.Store(1) // both fleet workers inside a task
	e.workers[1].taskSeq.Store(3)
	e.inject.Push(Task{}) // and work queued behind them
	e.spills.Store(maxSpill)
	probe := stallProbe{last: make([]uint64, len(e.workers))}
	seqs := make([]uint64, len(e.workers))
	for tick := 0; tick <= wedgedTicks; tick++ { // the first sample, then the wedged ticks
		if e.sample(&probe, seqs) {
			t.Fatalf("tick %d: sample spilled with %d spill workers live", tick, maxSpill)
		}
		if n := e.spills.Load(); n != maxSpill {
			t.Fatalf("tick %d: %d spill workers counted, want %d", tick, n, maxSpill)
		}
	}
	e.spills.Store(maxSpill - 1)
	if !e.sample(&probe, seqs) || e.spills.Load() != maxSpill {
		t.Fatalf("one below the cap, a wedged tick did not spill (%d live)", e.spills.Load())
	}
}

// TestSpillNeedsTwoWedgedTicks drives the monitor's per-tick probe
// through a script of samples: a single wedged tick never spills (a
// descheduled or long-computing worker looks wedged for one), the second
// in a row does and every further one spills once more, and each sign of
// movement — a fleet worker's taskSeq moving or even, a spill worker
// finishing a task, a Yield, dry queues — starts the count again.
func TestSpillNeedsTwoWedgedTicks(t *testing.T) {
	inside := []uint64{1, 3}  // both workers inside a task
	moved := []uint64{1, 5}   // the second inside another one
	between := []uint64{1, 4} // the second between tasks
	steps := []struct {
		what      string
		yielding  bool
		seqs      []uint64
		spillDone int64
		yields    int64
		queued    bool
		spill     bool
	}{
		{"first sample", false, inside, 0, 0, true, false},
		{"one wedged tick", false, inside, 0, 0, true, false},
		{"two wedged ticks", false, inside, 0, 0, true, true},
		{"three: one more spill", false, inside, 0, 0, true, true},
		{"a spill worker finished a task", false, inside, 1, 0, true, false},
		{"one wedged tick", false, inside, 1, 0, true, false},
		{"the worker was only descheduled", false, moved, 1, 0, true, false},
		{"one wedged tick", false, moved, 1, 0, true, false},
		{"a task yielded", false, moved, 1, 1, true, false},
		{"one wedged tick", false, moved, 1, 1, true, false},
		{"a task is yielding", true, moved, 1, 1, true, false},
		{"one wedged tick", false, moved, 1, 1, true, false},
		{"queues dry", false, moved, 1, 1, false, false},
		{"work again", false, moved, 1, 1, true, false},
		{"a worker between tasks", false, between, 1, 1, true, false},
		{"still between tasks", false, between, 1, 1, true, false},
		{"inside a task again", false, moved, 1, 1, true, false},
		{"one wedged tick", false, moved, 1, 1, true, false},
		{"two wedged ticks", false, moved, 1, 1, true, true},
		// A task that yields and then blocks inside the same task
		// (pipeline's head trigger runs its kept slab after the Yield)
		// spills wedgedTicks+1 ticks after the one the Yield fell in.
		{"a task yielded, then blocked", false, moved, 1, 2, true, false},
		{"one wedged tick", false, moved, 1, 2, true, false},
		{"two wedged ticks", false, moved, 1, 2, true, true},
	}
	p := stallProbe{last: make([]uint64, 2)}
	for i, s := range steps {
		if got := p.tick(s.yielding, s.seqs, s.spillDone, s.yields, s.queued); got != s.spill {
			t.Fatalf("tick %d (%s): spill = %v, want %v", i, s.what, got, s.spill)
		}
	}
}
