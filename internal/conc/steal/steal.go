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
// (conc.Limiter, actuated by the same SetReplicas/SetWorkers) and the
// goroutines that actually run stage work are exactly the worker set
// here, sized to the CPUs that exist.
//
// Design:
//
//   - Submit pushes the task onto the global injection queue (a grown-
//     once ring) and wakes one parked worker. External producers never
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
//     round trip), then parks: it announces itself on the parked
//     stack, re-checks every queue (announce-then-recheck closes the
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
// tries) and leave every blocking channel operation to the head and
// egress goroutines, so in steady state the fleet stays exactly
// CPU-sized. Tasks that block anyway — a stage function doing I/O, or a
// test rendezvous that needs N items inside the function at once — are
// covered by a monitor (the same thread-injection idea as the Go
// runtime's sysmon): when work is queued and every fleet worker is
// still inside the task it was inside a tick ago, it spawns a temporary
// spill worker. A queued task that an idle or busy-but-moving fleet has
// merely not grabbed yet is not a stall and spills nothing. Spill
// workers take one task at a time (no private deque, so they never hide
// work from the fleet) and exit as soon as the queues are dry, which
// keeps the injection strictly a liveness valve, not a second pool.
package steal

import (
	"fmt"
	"runtime"
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
// most half of it, so the owner-push overflow path never triggers in
// practice; 256 matches the Go runtime's per-P run queue.
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
// full (the caller then falls back to the global queue).
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
}

// Executor is a fixed-size work-stealing worker set. Create with New
// (or use the process-wide Default); Submit from any goroutine; Close
// drains submitted tasks and stops the workers.
type Executor struct {
	workers []*worker

	injectMu sync.Mutex
	inject   ring.FIFO[Task]
	injects  atomic.Int64

	parkMu sync.Mutex
	parked []*worker // stack of sleeping workers
	stop   atomic.Bool

	// Stall-monitor state: spillDone counts tasks completed by spill
	// workers (fleet workers count their own, see worker.taskSeq), spills
	// the live spill workers, spillsEver the cumulative count.
	spillDone  atomic.Int64
	spills     atomic.Int64
	spillsEver atomic.Int64

	wg sync.WaitGroup
}

type worker struct {
	e    *Executor
	id   int
	dq   Deque
	wake chan struct{} // buffered(1); send under parkMu after de-listing
	// asleep is guarded by e.parkMu: true while the worker is on the
	// parked stack (a waker that pops it flips this before sending).
	asleep bool
	seed   uint64 // victim-order xorshift state
	buf    [dequeCap / 2]Task

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
func New(n int) *Executor {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	e := &Executor{workers: make([]*worker, n)}
	for i := range e.workers {
		e.workers[i] = &worker{
			e:    e,
			id:   i,
			wake: make(chan struct{}, 1),
			seed: uint64(i)*0x9e3779b97f4a7c15 + 1,
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

// Workers returns the worker-set size.
func (e *Executor) Workers() int { return len(e.workers) }

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

// Close stops the workers after every previously submitted task has
// run. The caller must guarantee no Submit races or follows Close
// (the skeletons end a run only after every task they submitted has
// returned its result, and submit nothing afterwards).
func (e *Executor) Close() {
	e.stop.Store(true)
	e.parkMu.Lock()
	for _, w := range e.parked {
		w.asleep = false
		w.wake <- struct{}{}
	}
	e.parked = e.parked[:0]
	e.parkMu.Unlock()
	e.wg.Wait()
}

// Stats sums the executor's counters.
func (e *Executor) Stats() Stats {
	s := Stats{Injects: e.injects.Load(), Spills: e.spillsEver.Load()}
	for _, w := range e.workers {
		s.Pops += w.pops.Load()
		s.Grabbed += w.grabs.Load()
		s.Steals += w.steals.Load()
		s.Parks += w.parks.Load()
	}
	return s
}

// wakeOne pops one parked worker and wakes it. The wake channel send
// happens under parkMu with the worker already de-listed, so the
// worker's own unpark path (which also runs under parkMu) can tell a
// delivered wake from a pending one without a race.
func (e *Executor) wakeOne() {
	e.parkMu.Lock()
	if n := len(e.parked); n > 0 {
		w := e.parked[n-1]
		e.parked = e.parked[:n-1]
		w.asleep = false
		w.wake <- struct{}{}
	}
	e.parkMu.Unlock()
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

// monitor is the executor's liveness valve: if a full tick passes with
// every fleet worker inside the same task it was inside at the tick
// before, no spill worker completing one either, and work queued, the
// fleet is wedged inside blocking tasks, and a spill worker is injected
// to keep the queues draining (and to let K tasks that rendezvous with
// each other all get on CPU even when K exceeds the fleet). A worker
// that is between tasks, or inside a different one, is moving: whatever
// is queued is about to be grabbed, and spilling it would only add a
// goroutine. One injection per tick: bursts of blockers escalate
// linearly, a healthy fleet never escalates at all.
func (e *Executor) monitor() {
	defer e.wg.Done()
	last := make([]uint64, len(e.workers))
	lastSpillDone := int64(-1)
	for !e.stop.Load() {
		time.Sleep(monitorTick)
		wedged := true
		for i, w := range e.workers {
			cur := w.taskSeq.Load()
			if cur != last[i] || cur%2 == 0 {
				wedged = false
			}
			last[i] = cur
		}
		if cur := e.spillDone.Load(); cur != lastSpillDone {
			lastSpillDone = cur
			wedged = false
		}
		if !e.queued() {
			continue
		}
		if !wedged {
			// Queued work and a worker that is not stuck: it needs no help,
			// unless it parked a moment before a sibling grabbed a batch
			// and then blocked on the batch's first task — nothing wakes it
			// for what now sits in the sibling's deque. A wake-up is free
			// when nobody is parked.
			e.wakeOne()
			continue
		}
		if e.spills.Load() >= maxSpill {
			continue
		}
		e.spills.Add(1)
		e.spillsEver.Add(1)
		// Safe Add-during-Wait: the monitor's own wg slot holds the
		// counter above zero until after its last possible spawn.
		e.wg.Add(1)
		go e.spillWorker()
	}
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
// so nothing it holds is ever invisible to the fleet — and retires the
// moment the queues are dry.
func (e *Executor) spillWorker() {
	defer e.wg.Done()
	defer e.spills.Add(-1)
	for {
		t, ok := e.takeOne()
		if !ok {
			return
		}
		t.Fn(t.Arg)
		e.spillDone.Add(1)
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
	for {
		if t, ok := w.dq.Pop(); ok {
			w.pops.Add(1)
			return t, true
		}
		if t, ok := w.grabGlobal(); ok {
			return t, true
		}
		if t, ok := w.stealAny(); ok {
			return t, true
		}
		if w.e.stop.Load() {
			return Task{}, false
		}
		// Spin: give the scheduler a few chances to run a producer
		// before paying the park/unpark round trip.
		found := false
		for i := 0; i < spinRounds; i++ {
			runtime.Gosched()
			if w.anyWork() {
				found = true
				break
			}
		}
		if found {
			continue
		}
		// Park: announce first, then re-check. A Submit that lands
		// between the re-check and the channel receive sees the
		// announcement and wakes us; one that landed before the
		// re-check is caught by the re-check itself.
		e := w.e
		e.parkMu.Lock()
		e.parked = append(e.parked, w)
		w.asleep = true
		e.parkMu.Unlock()
		if w.anyWork() || e.stop.Load() {
			w.unpark()
			continue
		}
		w.parks.Add(1)
		<-w.wake
	}
}

// unpark withdraws a just-announced park: de-list if still listed,
// otherwise absorb the wake a waker has (with the send under parkMu
// already completed) delivered.
func (w *worker) unpark() {
	e := w.e
	e.parkMu.Lock()
	if w.asleep {
		for i, pw := range e.parked {
			if pw == w {
				e.parked = append(e.parked[:i], e.parked[i+1:]...)
				break
			}
		}
		w.asleep = false
		e.parkMu.Unlock()
		return
	}
	e.parkMu.Unlock()
	<-w.wake
}

// anyWork reports whether any queue anywhere holds a task.
func (w *worker) anyWork() bool {
	e := w.e
	e.injectMu.Lock()
	n := e.inject.Len()
	e.injectMu.Unlock()
	if n > 0 {
		return true
	}
	for _, v := range e.workers {
		if v != w && v.dq.Len() > 0 {
			return true
		}
	}
	return false
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

// requeue pushes buf[1:k] into the local deque (buf[0] is returned to
// the caller to run immediately) and clears the buffer. The deque is
// empty when grabs and steals happen and k is at most half its
// capacity, so the global fallback is defensive only.
func (w *worker) requeue(k int) {
	for i := 1; i < k; i++ {
		if !w.dq.Push(w.buf[i]) {
			w.e.injectMu.Lock()
			w.e.inject.Push(w.buf[i])
			w.e.injectMu.Unlock()
		}
		w.buf[i] = Task{}
	}
	w.buf[0] = Task{}
}

// String renders the stats compactly for logs and the bench report.
func (s Stats) String() string {
	return fmt.Sprintf("injects=%d pops=%d grabbed=%d steals=%d parks=%d spills=%d",
		s.Injects, s.Pops, s.Grabbed, s.Steals, s.Parks, s.Spills)
}
