// Package steal is the shared work-stealing executor behind the live
// skeletons: a fixed, GOMAXPROCS-sized set of persistent workers, each
// owning a bounded LIFO deque, fed through a global injection queue and
// balanced by steal-half.
//
// Before this executor, every pipeline stage (and every farm) ran its
// own dedicated worker pool, so a machine hosting a 6-stage pipeline
// carried the sum of all stage replica counts as runnable goroutines —
// and the Go scheduler's handoffs between them dominated the per-item
// hot path (DESIGN.md, "Granularity & batching", post-mortem). With
// the shared executor, replica counts become pure in-flight limits
// (a stage's count of slabs in flight, kept under its run's mutex and
// checked against the limit SetReplicas/SetWorkers stores) and the
// goroutines that actually run stage work are exactly the worker set
// here, sized to the CPUs that exist.
//
// Design:
//
//   - Submit pushes the task onto the global injection queue (a grown-
//     once ring) and wakes one idle worker. External producers never
//     touch worker deques, so Submit is a queue push + a conditional
//     channel send — no allocation in steady state (tasks are values;
//     their Arg is the caller's already-pooled slab).
//   - A worker looks for work in LIFO-local, global-batch, steal-half
//     order: pop its own deque (cache-warm, most recently stolen or
//     grabbed), else grab a batch of qlen/nworkers+1 tasks from the
//     global queue into the deque, else steal half of a sibling's
//     deque (victims probed in a per-worker pseudorandom order). The
//     batch grab is what makes stealing meaningful: a worker that
//     grabbed more than it can chew is relieved by its idle siblings.
//   - An idle worker spins briefly (a few runtime.Gosched rounds, so a
//     task completing on another P can hand over without a park/unpark
//     round trip), then parks: it announces itself on the idle list,
//     re-checks every queue (announce-then-recheck closes the
//     lost-wakeup window), and blocks on its wake channel.
//   - Deques are mutex-guarded rings rather than lock-free Chase-Lev:
//     the owner's pop and a thief's steal contend only when the deque
//     is nearly empty, both critical sections are a few word moves,
//     and the mutex version is obviously correct under the race
//     detector — the allocation profile (zero) is the same either way.
//     Steals and grabs move tasks through a small stack buffer in two
//     phases (lock victim, copy out; lock self, copy in) so no two
//     deque locks are ever held at once and lock ordering is trivial.
//
// Tasks are expected not to block on executor progress: the skeletons
// arrange their stage tasks to finish into reorder rings and bounded
// queues under a mutex (the pipeline's dataflow step, which only ever
// tries), send on the output only what its buffer has room for, and
// leave every blocking channel operation to the head and egress
// goroutines, so in steady state the fleet stays exactly
// CPU-sized. Tasks that block anyway — a stage function doing I/O, or a
// test rendezvous that needs N items inside the function at once — are
// covered by a monitor (the same thread-injection idea as the Go
// runtime's sysmon): when work is queued and every fleet worker is
// still inside the task it was inside a tick ago, it spawns a temporary
// spill worker. A queued task that an idle or busy-but-moving fleet has
// merely not grabbed yet is not a stall and spills nothing, and neither
// is a single wedged tick: a descheduled or long-computing worker looks
// the same for one tick, so a spill needs two in a row. Nor does a tick
// spill while a spill worker it started has yet to run: that one is on
// its way to the queued work. Spill workers take one task at a time
// (no private deque, so they never hide work from the fleet). A stage
// admits at most Replicas tasks at once, so a stage blocked forever
// holds at most Replicas workers: alone on the executor, it keeps at
// most Replicas minus the fleet spill workers.
//
// Idle workers of both kinds wait on one idle list, as the Go runtime
// keeps its idle threads on sched.midle. Its order is the wake
// preference: spill workers below fleet workers, each part oldest
// first, and a wake-up takes the top. So a task wakes the newest parked
// fleet worker, and the newest lingering spill worker only when no
// fleet worker is parked: a CPU-bound run with an idle fleet never hands
// work to a spill worker, and a fleet that sleeps inside its tasks keeps
// its spill workers from one wedge to the next. A spill worker exits
// when it lingers spillLinger on the list unwoken, so the injection
// stays a liveness valve, not a second pool. Close wakes the whole list.
// explore_test.go runs the idle protocol over every interleaving of a
// small executor and checks that no wake-up is lost.
//
// What an idle process pays after its first pipeline:
//   - the monitor of Default, which is never closed, wakes every
//     monitorTick until the process exits: 3.1 % of a core on the 2-CPU
//     VM (92–95 ms of CPU per 3 s window, read with getrusage from a
//     main that ran one 3-item Process through one stage and then slept;
//     0.1–0.2 ms before any pipeline);
//   - a spill worker lingers 10 ms after its last task, then exits
//     (TestSpillWorkerLingersThenExits);
//   - a pipeline's head linger timer stops with its run's head goroutine
//     (pipeline.TestBurstThenSilenceFlushesOnLinger arms it and waits
//     for the run's goroutines to go);
//   - the live controller's ticker stops with its run
//     (TestLiveAdaptiveRunAddsOnlyTheTicker in the root package).
package steal

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridpipe/internal/ring"
)

// Task is one unit of work: Fn applied to Arg. It is a value (two
// words of interface each) so queues of tasks move no pointers through
// the heap; submitters keep Fn to one long-lived closure per stage and
// pass the per-item state through Arg (a pooled slab or carrier).
type Task struct {
	Fn  func(arg any)
	Arg any
}

// dequeCap bounds each worker's local deque. Grabs and steals fill at
// most half of it, and only an empty one (see requeue); 256 matches the
// Go runtime's per-P run queue.
const dequeCap = 256

// spinRounds is how many Gosched rounds an idle worker spins before
// parking. Small: on the 1-CPU container a spinning worker only
// delays the producer it is waiting for.
const spinRounds = 4

// monitorTick is how often the stall monitor samples the workers' task
// counters; a task blocking the fleet costs one tick of latency per
// spill worker injected. The effective tick is longer than the constant
// says when the process is otherwise idle: Go floors a sub-millisecond
// netpoll wait at 1 ms, and time.Sleep(100µs) measures 1 129 µs (p50) on
// the 2-CPU benchmark VM — so behind a fleet of sleeping tasks every
// spill, and every hand-off that waits for one, costs 1–2 ms.
const monitorTick = 100 * time.Microsecond

// maxSpill caps concurrently live spill workers — far above anything a
// healthy program needs, low enough to turn a leak of forever-blocking
// tasks into backpressure instead of unbounded goroutine growth.
const maxSpill = 8192

// spillLinger is how long a spill worker that found the queues dry waits
// on the idle list for a wake-up before it exits. A fleet that sleeps
// inside its tasks submits again well within it, so the spill worker is
// reused instead of re-injected a monitor tick later (~1.1 ms effective);
// it stays well under the time a caller waits for a finished run's
// goroutines to go.
const spillLinger = 10 * time.Millisecond

// wedgedTicks is how many consecutive ticks the fleet must look wedged
// before the monitor spills: one tick cannot tell a blocked worker from
// a descheduled or long-computing one.
const wedgedTicks = 2

// Deque is one worker's bounded local queue: the owner pushes and pops
// at the tail (LIFO, cache-warm), thieves take from the head (the
// oldest tasks, FIFO-ish, which preserves rough submission order
// across the fleet). It is exported for the benchmark's deque probe;
// the executor is the only other client.
type Deque struct {
	mu   sync.Mutex
	head int // index of the oldest task
	n    int // live task count
	buf  [dequeCap]Task
}

// Push appends a task at the tail. It reports false when the deque is
// full.
func (d *Deque) Push(t Task) bool {
	d.mu.Lock()
	if d.n == dequeCap {
		d.mu.Unlock()
		return false
	}
	d.buf[(d.head+d.n)%dequeCap] = t
	d.n++
	d.mu.Unlock()
	return true
}

// Pop removes and returns the most recently pushed task (LIFO).
func (d *Deque) Pop() (Task, bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return Task{}, false
	}
	d.n--
	i := (d.head + d.n) % dequeCap
	t := d.buf[i]
	d.buf[i] = Task{}
	d.mu.Unlock()
	return t, true
}

// Len returns the current task count.
func (d *Deque) Len() int {
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	return n
}

// stealHalf moves up to half of the deque's tasks (at least one, from
// the head — the oldest) into dst and returns how many it took. dst is
// the thief's private buffer, so only one deque lock is held.
func (d *Deque) stealHalf(dst []Task) int {
	d.mu.Lock()
	k := (d.n + 1) / 2
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		j := (d.head + i) % dequeCap
		dst[i] = d.buf[j]
		d.buf[j] = Task{}
	}
	d.head = (d.head + k) % dequeCap
	d.n -= k
	d.mu.Unlock()
	return k
}

// Stats is a snapshot of the executor's counters: where tasks came
// from (local pops vs global grabs vs steals) and how often workers
// parked. Pops+Grabbed+Stolen ≥ tasks executed is not an identity —
// grabbed and stolen tasks are re-popped locally — but the ratios
// expose the handoff profile the DESIGN.md post-mortem tracks.
type Stats struct {
	Injects int64 // tasks submitted to the global queue
	Pops    int64 // tasks taken from a worker's own deque
	Grabbed int64 // tasks moved global→local in batch grabs
	Steals  int64 // steal-half operations that found work
	Parks   int64 // times a worker went to sleep
	Spills  int64 // spill workers the stall monitor ever injected
	Yields  int64 // calls to Yield
}

// Executor is a fixed-size work-stealing worker set. Create with New
// (or use the process-wide Default); Submit from any goroutine; Close
// drains submitted tasks and stops the workers.
type Executor struct {
	workers []*worker

	injectMu sync.Mutex
	inject   ring.FIFO[Task]
	injects  atomic.Int64

	idleMu sync.Mutex
	idle   []*sleeper // spill sleepers, then fleet sleepers; each part oldest first
	stop   atomic.Bool

	// Stall-monitor state: spillDone counts tasks completed by spill
	// workers (fleet workers count their own, see worker.taskSeq), yields
	// the calls to Yield and yielding those not yet returned, spills the
	// live spill workers (lingering ones included), spillsStarting those
	// counted by sample whose goroutine has not yet begun, spillsEver the
	// cumulative count.
	spillDone      atomic.Int64
	yields         atomic.Int64
	yielding       atomic.Int64
	spills         atomic.Int64
	spillsStarting atomic.Int64
	spillsEver     atomic.Int64
	linger         time.Duration // spillLinger; tests lengthen it

	wg sync.WaitGroup
}

// sleeper is a worker's entry on the idle list.
type sleeper struct {
	wake chan struct{} // buffered(1); sent to under idleMu after de-listing
	// listed is guarded by e.idleMu: true while the sleeper is on the idle
	// list (a waker that takes it off flips this before sending).
	listed bool
	spill  bool // a spill worker's: woken only when no fleet worker is idle
}

type worker struct {
	sleeper
	e    *Executor
	dq   Deque
	seed uint64 // victim-order xorshift state
	buf  [dequeCap / 2]Task

	// taskSeq is bumped on entering and on leaving a task's Fn: odd while
	// the worker is inside one, and never the same odd value for two
	// different tasks — what the stall monitor compares across a tick.
	taskSeq atomic.Uint64

	pops   atomic.Int64
	grabs  atomic.Int64
	steals atomic.Int64
	parks  atomic.Int64
}

// New starts an executor with n workers (n < 1 takes GOMAXPROCS).
func New(n int) *Executor { return newExecutor(n, spillLinger) }

func newExecutor(n int, linger time.Duration) *Executor {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: make([]*worker, n), linger: linger}
	for i := range e.workers {
		e.workers[i] = &worker{
			sleeper: sleeper{wake: make(chan struct{}, 1)},
			e:       e,
			seed:    uint64(i)*0x9e3779b97f4a7c15 + 1,
		}
	}
	e.wg.Add(n + 1)
	for _, w := range e.workers {
		go w.run()
	}
	go e.monitor()
	return e
}

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor, sized to GOMAXPROCS at
// first use and never closed: every pipeline and farm in the process
// shares one worker set, which is the point — the goroutines doing
// stage work match the CPUs, no matter how many skeletons run.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = New(0) })
	return defaultExec
}

// Submit queues one task. It must not be called after Close.
func (e *Executor) Submit(t Task) {
	if t.Fn == nil {
		panic("steal: Submit with nil Fn")
	}
	e.injectMu.Lock()
	e.inject.Push(t)
	e.injectMu.Unlock()
	e.injects.Add(1)
	e.wakeOne()
}

// Yield hands the calling task's processor to the goroutines waiting for
// one (runtime.Gosched): a goroutine the task readied waits otherwise
// until the worker blocks, which a worker busy with long tasks may not do
// for a scheduler time slice. A yielding task waits for a processor, not
// for the executor, so the stall monitor counts a Yield as movement, like
// a task ending: no tick in which one begins or is under way is wedged.
// A task may go on after a Yield; if it then blocks, the tick the Yield
// fell in does not count towards the wedgedTicks in a row a spill needs,
// so its spill worker comes one tick later than without the Yield
// (TestSpillNeedsTwoWedgedTicks). The pipeline yields on two triggers
// (pipeline's advance): after a send that readied its consumer the task
// ends, and before a long slab while stage 0 waits on the head it runs
// the slab.
func (e *Executor) Yield() {
	e.yields.Add(1)
	e.yielding.Add(1)
	runtime.Gosched()
	e.yielding.Add(-1)
}

// Close stops the workers after every previously submitted task has
// run. The caller must guarantee no Submit races or follows Close
// (the skeletons end a run only after every task they submitted has
// returned its result, and submit nothing afterwards). Idle workers are
// woken, not waited out.
func (e *Executor) Close() {
	e.stop.Store(true)
	e.wakeAll()
	e.wg.Wait()
}

// Stats sums the executor's counters.
func (e *Executor) Stats() Stats {
	s := Stats{Injects: e.injects.Load(), Spills: e.spillsEver.Load(), Yields: e.yields.Load()}
	for _, w := range e.workers {
		s.Pops += w.pops.Load()
		s.Grabbed += w.grabs.Load()
		s.Steals += w.steals.Load()
		s.Parks += w.parks.Load()
	}
	return s
}

// park announces s on the idle list: a fleet sleeper on top, a spill
// sleeper on top of the other spill sleepers, below every fleet one.
// The caller then calls recheck before it blocks on s.wake.
func (e *Executor) park(s *sleeper) {
	e.idleMu.Lock()
	i := len(e.idle)
	for s.spill && i > 0 && !e.idle[i-1].spill {
		i--
	}
	e.idle = slices.Insert(e.idle, i, s)
	s.listed = true
	e.idleMu.Unlock()
}

// recheck is the second half of announce-then-recheck: a task submitted
// before s was listed is caught here, and one submitted after finds s on
// the list and wakes it. It reports whether the caller may block on
// s.wake; on work or a Close it withdraws s and reports false.
func (e *Executor) recheck(s *sleeper) bool {
	if e.queued() || e.stop.Load() {
		e.withdraw(s)
		return false
	}
	return true
}

// withdraw takes s off the idle list. It reports false when a waker had
// already taken it off, and then absorbs the wake that waker sent (under
// idleMu, so it has been delivered).
func (e *Executor) withdraw(s *sleeper) bool {
	e.idleMu.Lock()
	listed := s.listed
	if listed {
		i := slices.Index(e.idle, s)
		e.idle = slices.Delete(e.idle, i, i+1)
		s.listed = false
	}
	e.idleMu.Unlock()
	if !listed {
		<-s.wake
	}
	return listed
}

// wakeOne takes the top sleeper off the idle list and wakes it. The send
// happens under idleMu with the sleeper already de-listed, so its
// withdraw (which also runs under idleMu) can tell a delivered wake from
// a pending one without a race.
func (e *Executor) wakeOne() {
	e.idleMu.Lock()
	if n := len(e.idle); n > 0 {
		s := e.idle[n-1]
		e.idle = e.idle[:n-1]
		s.listed = false
		s.wake <- struct{}{}
	}
	e.idleMu.Unlock()
}

// wakeAll empties the idle list, waking every sleeper on it: Close's
// sweep, after which a worker that parks sees the stop in its recheck.
func (e *Executor) wakeAll() {
	e.idleMu.Lock()
	for _, s := range e.idle {
		s.listed = false
		s.wake <- struct{}{}
	}
	e.idle = e.idle[:0]
	e.idleMu.Unlock()
}

func (w *worker) run() {
	defer w.e.wg.Done()
	for {
		t, ok := w.find()
		if !ok {
			return
		}
		w.taskSeq.Add(1)
		t.Fn(t.Arg)
		w.taskSeq.Add(1)
	}
}

// monitor is the executor's liveness valve: every tick it runs sample,
// and when that finds the fleet wedged inside blocking tasks with work
// queued it injects a spill worker to keep the queues draining (and to
// let K tasks that rendezvous with each other all get on CPU even when K
// exceeds the fleet). One injection per tick: bursts of blockers
// escalate linearly, a healthy fleet never escalates at all.
func (e *Executor) monitor() {
	defer e.wg.Done()
	probe := stallProbe{last: make([]uint64, len(e.workers))}
	seqs := make([]uint64, len(e.workers))
	for !e.stop.Load() {
		time.Sleep(monitorTick)
		if e.sample(&probe, seqs) {
			// Safe Add-during-Wait: the monitor's own wg slot holds the
			// counter above zero until after its last possible spawn.
			e.wg.Add(1)
			go e.spillWorker()
		}
	}
}

// sample is one monitor tick: it folds the fleet's task counters into
// the probe and reports whether to start a spill worker, which it has
// then already counted. While a spill worker it started has not begun
// running, that worker is on its way to the queued work, and the tick
// starts no other: a second would find nothing, linger and exit.
func (e *Executor) sample(probe *stallProbe, seqs []uint64) bool {
	yielding := e.yielding.Load() != 0
	for i, w := range e.workers {
		seqs[i] = w.taskSeq.Load()
	}
	queued := e.queued()
	if !probe.tick(yielding, seqs, e.spillDone.Load(), e.yields.Load(), queued) {
		if queued {
			// Queued work and a fleet that is not stuck (or not for
			// long enough): it needs no new worker, unless one parked
			// a moment before a sibling grabbed a batch and then
			// blocked on the batch's first task — nothing wakes it for
			// what now sits in the sibling's deque. The wake-up goes
			// to a lingering spill worker when no fleet worker is
			// parked, and is free when nobody is.
			e.wakeOne()
		}
		return false
	}
	if e.spills.Load() >= maxSpill || e.spillsStarting.Load() != 0 {
		return false
	}
	e.spills.Add(1)
	e.spillsStarting.Add(1)
	e.spillsEver.Add(1)
	return true
}

// stallProbe is the monitor's memory from one tick to the next.
type stallProbe struct {
	last              []uint64 // each fleet worker's taskSeq at the tick before
	spillDone, yields int64    // the executor's counters at the tick before
	streak            int      // wedged ticks in a row
}

// tick folds one sample into the probe and reports whether to spill now.
// A tick is wedged when work is queued, every fleet worker is still
// inside the very task it was inside at the tick before (the same odd
// taskSeq), no spill worker completed a task and no task called or sat
// in Yield. A worker that is between tasks, or inside a different one, is
// moving: whatever is queued is about to be grabbed, and spilling it
// would only add a goroutine. The probe spills from the wedgedTicks-th
// wedged tick in a row on, once per tick.
func (p *stallProbe) tick(yielding bool, seqs []uint64, spillDone, yields int64, queued bool) bool {
	wedged := queued && !yielding && spillDone == p.spillDone && yields == p.yields
	for i, cur := range seqs {
		if cur != p.last[i] || cur%2 == 0 {
			wedged = false
		}
		p.last[i] = cur
	}
	p.spillDone, p.yields = spillDone, yields
	if !wedged {
		p.streak = 0
		return false
	}
	p.streak++
	return p.streak >= wedgedTicks
}

// queued reports whether any task is waiting anywhere.
func (e *Executor) queued() bool {
	e.injectMu.Lock()
	n := e.inject.Len()
	e.injectMu.Unlock()
	if n > 0 {
		return true
	}
	for _, w := range e.workers {
		if w.dq.Len() > 0 {
			return true
		}
	}
	return false
}

// spillWorker drains one task at a time — never into a private deque,
// so nothing it holds is ever invisible to the fleet. When the queues
// are dry it lingers on the idle list, and it retires when a linger
// ends with it still listed, or the executor closes.
func (e *Executor) spillWorker() {
	e.spillsStarting.Add(-1)
	defer e.wg.Done()
	defer e.spills.Add(-1)
	s := &sleeper{wake: make(chan struct{}, 1), spill: true}
	expiry := time.NewTimer(e.linger)
	defer expiry.Stop()
	for {
		if t, ok := e.takeOne(); ok {
			t.Fn(t.Arg)
			e.spillDone.Add(1)
			continue
		}
		if e.stop.Load() {
			return
		}
		e.park(s)
		if !e.recheck(s) {
			continue
		}
		expiry.Reset(e.linger)
		select {
		case <-s.wake:
			expiry.Stop()
		case <-expiry.C:
			if e.withdraw(s) {
				return
			}
		}
	}
}

// takeOne pops a single task from the global queue or, failing that,
// the head of some worker's deque.
func (e *Executor) takeOne() (Task, bool) {
	e.injectMu.Lock()
	if e.inject.Len() > 0 {
		t, _ := e.inject.Pop()
		e.injectMu.Unlock()
		return t, true
	}
	e.injectMu.Unlock()
	var buf [1]Task
	for _, w := range e.workers {
		if w.dq.stealHalf(buf[:]) == 1 {
			return buf[0], true
		}
	}
	return Task{}, false
}

// find returns the next task, blocking through the spin-then-park
// ladder; false means the executor closed and every queue is dry.
func (w *worker) find() (Task, bool) {
	e := w.e
	for {
		if t, ok := w.look(); ok {
			return t, true
		}
		if e.stop.Load() {
			return Task{}, false
		}
		// Spin: give the scheduler a few chances to run a producer
		// before paying the park/unpark round trip.
		found := false
		for i := 0; i < spinRounds && !found; i++ {
			runtime.Gosched()
			found = e.queued()
		}
		if found {
			continue
		}
		e.park(&w.sleeper)
		if !e.recheck(&w.sleeper) {
			continue
		}
		w.parks.Add(1)
		<-w.wake
	}
}

// look is one pass of the worker's search: its own deque, then a batch
// from the global queue, then half of a sibling's deque.
func (w *worker) look() (Task, bool) {
	if t, ok := w.dq.Pop(); ok {
		w.pops.Add(1)
		return t, true
	}
	if t, ok := w.grabGlobal(); ok {
		return t, true
	}
	return w.stealAny()
}

// grabGlobal moves a batch of qlen/nworkers+1 tasks (capped at half
// the deque) from the global queue into the worker, returning the
// first. Two phases through the private buffer: no deque lock is held
// under the inject lock.
func (w *worker) grabGlobal() (Task, bool) {
	e := w.e
	e.injectMu.Lock()
	qlen := e.inject.Len()
	if qlen == 0 {
		e.injectMu.Unlock()
		return Task{}, false
	}
	k := qlen/len(e.workers) + 1
	if k > qlen {
		k = qlen
	}
	if k > len(w.buf) {
		k = len(w.buf)
	}
	for i := 0; i < k; i++ {
		w.buf[i], _ = e.inject.Pop()
	}
	e.injectMu.Unlock()
	w.grabs.Add(int64(k))
	t := w.buf[0]
	w.requeue(k)
	return t, true
}

// stealAny probes the sibling deques in a per-worker pseudorandom
// order and takes half of the first non-empty one.
func (w *worker) stealAny() (Task, bool) {
	e := w.e
	n := len(e.workers)
	if n == 1 {
		return Task{}, false
	}
	// xorshift64: cheap, allocation-free victim shuffling.
	w.seed ^= w.seed << 13
	w.seed ^= w.seed >> 7
	w.seed ^= w.seed << 17
	start := int(w.seed % uint64(n))
	for i := 0; i < n; i++ {
		v := e.workers[(start+i)%n]
		if v == w {
			continue
		}
		if k := v.dq.stealHalf(w.buf[:]); k > 0 {
			w.steals.Add(1)
			t := w.buf[0]
			w.requeue(k)
			return t, true
		}
	}
	return Task{}, false
}

// requeue copies buf[1:k] into the worker's own deque under one lock
// (buf[0] goes to the caller to run) and clears the buffer. The deque
// is empty here: only its owner pushes, the owner grabs or steals only
// after its own Pop found the deque empty, and k-1 < dequeCap/2, so
// nothing can overflow.
func (w *worker) requeue(k int) {
	d := &w.dq
	d.mu.Lock()
	if d.n != 0 {
		panic("steal: requeue into a non-empty deque; only its owner pushes, after its own Pop found it empty")
	}
	d.head = 0
	d.n = copy(d.buf[:], w.buf[1:k])
	d.mu.Unlock()
	clear(w.buf[:k])
}
