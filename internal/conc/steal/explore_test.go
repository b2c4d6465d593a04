package steal

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The idle-protocol explorer. It runs a small executor single-threaded
// and tries every interleaving of its goroutines' steps, depth first,
// visiting each distinct state once. The executor is a goroutine-less
// Executor literal: every step calls the executor's own non-blocking
// methods (look, takeOne, park, recheck, withdraw, wakeOne, wakeAll,
// Submit, sample) and mirrors only the control flow of the loop it
// names, so what blocks in the real loops (a receive on a wake channel,
// the linger select, the monitor's sleep, starting a goroutine) is a
// phase of a mirrored goroutine here. Every state is checked, not only
// the terminal ones, so no later monitor tick can hide a lost wake-up.
//
// Bounds: exFleet fleet workers, at most exSpill live spill workers (a
// tick that would start one more does what the monitor does at
// maxSpill), exTasks tasks submitted in order by one producer that then
// closes the executor, and at most exTicks monitor ticks. Yield is not
// a step (TestSpillNeedsTwoWedgedTicks covers it as movement), and a
// spin is one round: more rounds only repeat the same queued() probe.

const (
	exFleet = 2
	exSpill = 2
	exTasks = 3
	exTicks = 4
)

// phase is where a mirrored goroutine stands: the step it takes next.
type phase uint8

const (
	gone     phase = iota // exited, or a spill slot with no goroutine
	looking               // loop top: find's look (fleet), spillWorker's takeOne (spill)
	spinning              // fleet: the look found nothing, no stop: one spin round
	parking               // next: park
	checking              // parked: next, recheck
	asleep                // blocked on <-wake (fleet) or in the linger select (spill)
	running               // inside a task
	blocked               // inside a task that waits for an unblock
	starting              // spill: counted by sample, its goroutine not yet run
)

var phaseNames = [...]string{"gone", "looking", "spinning", "parking", "checking", "asleep", "running", "blocked", "starting"}

// mirror is one worker goroutine. listed and pending are its sleeper's.
type mirror struct {
	phase   phase
	task    int8 // the task it is inside (running, blocked)
	listed  bool
	pending bool // a wake sits in the sleeper's channel
}

// snap is one explorer state, all of it: restore rebuilds the executor
// from a snap alone, so two states with one snap are the same state, and
// the snap, being comparable, is its own hash key. It leaves out the
// fleet's victim seeds: with two workers, a thief's victim is the other
// one whatever its seed holds.
type snap struct {
	fleet   [exFleet]mirror
	spill   [exSpill]mirror
	seq     [exFleet]uint8 // the fleet's taskSeq
	starts  [exFleet]uint8 // tasks each fleet worker began
	dq      [exFleet][exTasks]int8
	dqN     [exFleet]uint8
	inject  [exTasks]int8
	injectN uint8
	idle    [exFleet + exSpill]int8 // sleepers, bottom first: fleet i, spill slot exFleet+j
	idleN   uint8

	submitted uint8
	done      [exTasks]uint8 // times each task finished
	stop      bool
	swept     bool // Close's wakeAll ran
	spillDone uint8

	ticks   uint8
	monDone bool
	probe   struct {
		last              [exFleet]uint8
		spillDone, streak uint8
	}
	// The explorer's own count of wedged ticks in a row, from its own
	// record of what each fleet worker is inside.
	wedged        uint8
	lastStarts    [exFleet]uint8
	lastSpillDone uint8
}

// liveSpills counts the spill workers that have not exited.
func (s *snap) liveSpills() int {
	n := 0
	for _, m := range s.spill {
		if m.phase != gone {
			n++
		}
	}
	return n
}

// startingSpills counts the spill workers counted by sample whose
// goroutine has not yet begun.
func (s *snap) startingSpills() int {
	n := 0
	for _, m := range s.spill {
		if m.phase == starting {
			n++
		}
	}
	return n
}

// step is one enabled move: actor 0..exFleet-1 a fleet worker, then the
// spill slots, then the producer, then the monitor; alt picks between a
// phase's two moves.
type step struct {
	actor, alt uint8
	ph         phase
}

const (
	producerActor = exFleet + exSpill
	monitorActor  = producerActor + 1
)

type explorer struct {
	t      *testing.T
	e      *Executor
	spills [exSpill]*sleeper
	probe  stallProbe
	seqs   []uint64
	s      snap
	seen   map[snap]struct{}
	path   []step
	moves  int
	ends   int
	capped int
}

func nop(any) {}

func task(id int8) Task { return Task{Fn: nop, Arg: int(id)} }

func newExplorer(t *testing.T) *explorer {
	x := &explorer{t: t, e: &Executor{workers: make([]*worker, exFleet)}, seqs: make([]uint64, exFleet), seen: map[snap]struct{}{}}
	x.probe.last = make([]uint64, exFleet)
	for i := range x.e.workers {
		x.e.workers[i] = &worker{sleeper: sleeper{wake: make(chan struct{}, 1)}, e: x.e, seed: uint64(i)*0x9e3779b97f4a7c15 + 1}
		x.s.fleet[i].phase = looking
	}
	for j := range x.spills {
		x.spills[j] = &sleeper{wake: make(chan struct{}, 1), spill: true}
	}
	return x
}

// sleeper returns the sleeper with idle-list index k.
func (x *explorer) sleeper(k int) *sleeper {
	if k < exFleet {
		return &x.e.workers[k].sleeper
	}
	return x.spills[k-exFleet]
}

func (x *explorer) mirror(k int) *mirror {
	if k < exFleet {
		return &x.s.fleet[k]
	}
	return &x.s.spill[k-exFleet]
}

// capture reads the executor's side of the current state into x.s, and
// zeroes what no later step reads, so that a state has one snap.
func (x *explorer) capture() snap {
	e := x.e
	x.s.dq, x.s.inject, x.s.idle = [exFleet][exTasks]int8{}, [exTasks]int8{}, [exFleet + exSpill]int8{}
	for k := 0; k < exFleet+exSpill; k++ {
		sl, m := x.sleeper(k), x.mirror(k)
		m.listed, m.pending = sl.listed, len(sl.wake) == 1
		if m.phase != running && m.phase != blocked {
			m.task = 0
		}
	}
	for i, w := range e.workers {
		x.s.seq[i] = uint8(w.taskSeq.Load())
		d := &w.dq
		x.s.dqN[i] = uint8(d.n)
		for j := 0; j < d.n; j++ {
			x.s.dq[i][j] = int8(d.buf[(d.head+j)%dequeCap].Arg.(int))
		}
	}
	x.s.injectN = uint8(e.inject.Len())
	for j := range int(x.s.injectN) {
		t, _ := e.inject.Pop()
		x.s.inject[j] = int8(t.Arg.(int))
		e.inject.Push(t)
	}
	x.s.idleN = uint8(len(e.idle))
	for j, sl := range e.idle {
		x.s.idle[j] = int8(x.index(sl))
	}
	x.s.stop = e.stop.Load()
	x.s.spillDone = uint8(e.spillDone.Load())
	for i, v := range x.probe.last {
		x.s.probe.last[i] = uint8(v)
	}
	x.s.probe.spillDone, x.s.probe.streak = uint8(x.probe.spillDone), uint8(x.probe.streak)
	if x.s.monDone || x.s.ticks == exTicks { // only the task counters' ticks read these
		x.s.seq, x.s.starts, x.s.spillDone = [exFleet]uint8{}, [exFleet]uint8{}, 0
		x.s.probe.last, x.s.probe.spillDone, x.s.probe.streak = [exFleet]uint8{}, 0, 0
		x.s.wedged, x.s.lastStarts, x.s.lastSpillDone = 0, [exFleet]uint8{}, 0
	}
	return x.s
}

func (x *explorer) index(sl *sleeper) int {
	for k := 0; k < exFleet+exSpill; k++ {
		if x.sleeper(k) == sl {
			return k
		}
	}
	x.fail("a sleeper the explorer does not know is on the idle list")
	return -1
}

// restore makes s the current state, executor included.
func (x *explorer) restore(s snap) {
	x.s = s
	e := x.e
	for k := 0; k < exFleet+exSpill; k++ {
		sl, m := x.sleeper(k), x.mirror(k)
		sl.listed = m.listed
		select {
		case <-sl.wake:
		default:
		}
		if m.pending {
			sl.wake <- struct{}{}
		}
	}
	for i, w := range e.workers {
		w.taskSeq.Store(uint64(s.seq[i]))
		w.dq.head, w.dq.n = 0, int(s.dqN[i])
		for j := 0; j < w.dq.n; j++ {
			w.dq.buf[j] = task(s.dq[i][j])
		}
	}
	for e.inject.Len() > 0 {
		e.inject.Pop()
	}
	for _, id := range s.inject[:s.injectN] {
		e.inject.Push(task(id))
	}
	e.idle = e.idle[:0]
	for _, k := range s.idle[:s.idleN] {
		e.idle = append(e.idle, x.sleeper(int(k)))
	}
	e.stop.Store(s.stop)
	e.spillDone.Store(int64(s.spillDone))
	e.spills.Store(int64(s.liveSpills()))
	e.spillsStarting.Store(int64(s.startingSpills()))
	for i, v := range s.probe.last {
		x.probe.last[i] = uint64(v)
	}
	x.probe.spillDone, x.probe.streak = int64(s.probe.spillDone), int(s.probe.streak)
}

// steps lists the moves enabled in the current state.
func (x *explorer) steps(out []step) []step {
	for k := 0; k < exFleet+exSpill; k++ {
		m := x.mirror(k)
		switch m.phase {
		case gone:
		case running, asleep:
			if m.phase == running || m.pending {
				out = append(out, step{uint8(k), 0, m.phase})
			}
			if m.phase == running || k >= exFleet { // block; a spill's linger expiring
				out = append(out, step{uint8(k), 1, m.phase})
			}
		default:
			out = append(out, step{uint8(k), 0, m.phase})
		}
	}
	if x.s.submitted < exTasks || !x.s.stop || !x.s.swept {
		out = append(out, step{actor: producerActor})
	}
	if !x.s.monDone && x.s.ticks < exTicks {
		out = append(out, step{actor: monitorActor})
	}
	if !x.s.monDone && x.s.stop {
		out = append(out, step{actor: monitorActor, alt: 1})
	}
	return out
}

func (st step) String() string {
	switch {
	case st.actor == producerActor:
		return "producer"
	case st.actor == monitorActor && st.alt == 0:
		return "monitor tick"
	case st.actor == monitorActor:
		return "monitor sees stop"
	}
	alt := ""
	if st.alt == 1 {
		alt = map[phase]string{running: " (blocks)", asleep: " (linger expires)"}[st.ph]
	}
	return who(int(st.actor)) + " " + phaseNames[st.ph] + alt
}

// apply takes one step.
func (x *explorer) apply(st step) {
	switch {
	case st.actor == producerActor:
		x.produce()
	case st.actor == monitorActor && st.alt == 0:
		x.tick()
	case st.actor == monitorActor: // monitor: the loop's !e.stop.Load() check
		x.s.monDone = true
	default:
		x.work(int(st.actor), st.alt)
	}
}

// work is one step of worker k: worker.run and worker.find for a fleet
// worker, spillWorker for a spill worker.
func (x *explorer) work(k int, alt uint8) {
	e, m, sl := x.e, x.mirror(k), x.sleeper(k)
	fleet := k < exFleet
	switch m.phase {
	case starting: // the go statement's goroutine begins spillWorker, which uncounts itself
		e.spillsStarting.Add(-1)
		m.phase = looking
	case looking: // find: look, then the stop check; spillWorker: takeOne, then the stop check
		var t Task
		var ok bool
		if fleet {
			t, ok = e.workers[k].look()
		} else {
			t, ok = e.takeOne()
		}
		switch {
		case ok:
			m.phase, m.task = running, int8(t.Arg.(int))
			if fleet {
				e.workers[k].taskSeq.Add(1) // run: entering t.Fn
				x.s.starts[k]++
			}
		case e.stop.Load():
			x.exit(k)
		case fleet:
			m.phase = spinning
		default:
			m.phase = parking
		}
	case spinning: // find: one round of the spin loop
		m.phase = parking
		if e.queued() {
			m.phase = looking
		}
	case parking: // find, spillWorker: park
		e.park(sl)
		m.phase = checking
	case checking: // find, spillWorker: recheck
		m.phase = looking
		if e.recheck(sl) {
			m.phase = asleep
		}
	case asleep: // find: <-w.wake; spillWorker: the linger select
		switch {
		case alt == 0:
			<-sl.wake
			m.phase = looking
		case e.withdraw(sl):
			x.exit(k)
		default:
			m.phase = looking
		}
	case running: // run: t.Fn returns; spillWorker: t.Fn returns, e.spillDone.Add(1)
		if alt == 1 {
			m.phase = blocked
			break
		}
		if fleet {
			e.workers[k].taskSeq.Add(1)
		} else {
			e.spillDone.Add(1)
		}
		x.s.done[m.task]++
		m.phase = looking
	case blocked:
		m.phase = running
	}
}

// exit ends worker k: find returns false; spillWorker returns, and its
// deferred e.spills.Add(-1) runs.
func (x *explorer) exit(k int) {
	if k >= exFleet {
		x.e.spills.Add(-1)
	}
	*x.mirror(k) = mirror{}
}

// produce is the one producer: Submit each task in order, then Close
// (its stop store and its wakeAll are two steps; its wg.Wait is the
// terminal state).
func (x *explorer) produce() {
	e := x.e
	switch {
	case x.s.submitted < exTasks:
		var top *sleeper
		if n := len(e.idle); n > 0 {
			top = e.idle[n-1]
		}
		e.Submit(task(int8(x.s.submitted)))
		x.s.submitted++
		if top != nil && (top.listed || len(top.wake) != 1) {
			x.fail("Submit did not wake the top of the idle list")
		}
	case !x.s.stop:
		e.stop.Store(true)
	default:
		e.wakeAll()
		x.s.swept = true
		if len(e.idle) != 0 {
			x.fail("Close's wakeAll left %d sleepers on the idle list", len(e.idle))
		}
	}
}

// inside reports whether fleet worker i is inside a task.
func (x *explorer) inside(i int) bool {
	p := x.s.fleet[i].phase
	return p == running || p == blocked
}

// queued is the explorer's own count of tasks submitted and not begun.
func (x *explorer) queued() int {
	n := int(x.s.submitted)
	for k := 0; k < exFleet+exSpill; k++ {
		if p := x.mirror(k).phase; p == running || p == blocked {
			n--
		}
	}
	for _, d := range x.s.done {
		n -= int(d)
	}
	return n
}

// tick is one pass of the monitor loop: sample, then the go statement
// (a spill slot in phase starting), then the loop's stop check. The
// explorer keeps its own count of wedged ticks in a row — work queued,
// every fleet worker inside the task it was inside at the tick before,
// and no spill worker finished a task since — and holds sample to it:
// a spill on the second such tick in a row and on every later one while
// no spill worker it started is still to begin, and on no other.
func (x *explorer) tick() {
	e := x.e
	x.s.ticks++
	spillDone := uint8(e.spillDone.Load())
	wedged := x.queued() > 0 && spillDone == x.s.lastSpillDone
	for i := range x.s.fleet {
		// Entering a task counts a start, so an unchanged count while
		// inside one is the task it was inside at the tick before.
		if !x.inside(i) || x.s.starts[i] != x.s.lastStarts[i] {
			wedged = false
		}
	}
	x.s.lastStarts, x.s.lastSpillDone = x.s.starts, spillDone
	x.s.wedged++
	if !wedged {
		x.s.wedged = 0
	}
	unstarted := x.s.startingSpills()
	spill := e.sample(&x.probe, x.seqs)
	switch {
	case spill && x.s.wedged < 2:
		x.fail("a spill on wedged tick %d in a row; want one from the second on", x.s.wedged)
	case spill && unstarted > 0:
		x.fail("a spill while %d spill workers it started have not begun; want none until they run", unstarted)
	case !spill && x.s.wedged >= 2 && unstarted == 0:
		x.fail("work queued behind a fleet wedged for %d ticks, and no spill", x.s.wedged)
	}
	if spill {
		j := 0
		for j < exSpill && x.s.spill[j].phase != gone {
			j++
		}
		if j == exSpill { // the explorer's cap: what sample does at maxSpill
			e.spills.Add(-1)
			e.spillsStarting.Add(-1)
			e.spillsEver.Add(-1)
			x.capped++
		} else {
			x.spills[j].listed = false
			x.s.spill[j] = mirror{phase: starting}
		}
	}
	if e.stop.Load() {
		x.s.monDone = true
	}
}

// check asserts the invariants of one state.
func (x *explorer) check() {
	e := x.e
	s := x.capture()
	// Each task is in exactly one place: a queue, a worker, or done once.
	var where [exTasks]int
	for _, id := range s.inject[:s.injectN] {
		where[id]++
	}
	for i := range s.fleet {
		for _, id := range s.dq[i][:s.dqN[i]] {
			where[id]++
		}
	}
	awake := false
	for k := 0; k < exFleet+exSpill; k++ {
		m := x.mirror(k)
		if m.phase == running || m.phase == blocked {
			where[m.task]++
		}
		// A parked sleeper is listed or has its wake, not both; any other
		// has neither. So a waker never sends to a full channel, and a
		// withdraw never waits for a wake nobody sends.
		if m.phase == checking || m.phase == asleep {
			if m.listed == m.pending {
				x.fail("%s: listed %v with a wake pending %v; want exactly one", who(k), m.listed, m.pending)
			}
		} else if m.listed || m.pending {
			x.fail("%s %s: listed %v, wake pending %v; want neither (a wake sent to it later would block: deadlock)", who(k), phaseNames[m.phase], m.listed, m.pending)
		}
		if m.pending || (m.phase != gone && m.phase != asleep) {
			awake = true
		}
	}
	for id := range where {
		want := 0
		if id < int(s.submitted) {
			want = 1
		}
		if where[id]+int(s.done[id]) != want {
			x.fail("task %d: in %d places and done %d times; want %d in all", id, where[id], s.done[id], want)
		}
	}
	if q := x.queued() > 0; q != e.queued() {
		x.fail("the explorer counts %v queued, the executor's queued() says %v", q, !q)
	}
	// No lost wake-up: queued work has a worker that is awake (looking,
	// parking, inside a task, about to start) or a wake on its way.
	if x.queued() > 0 && !awake {
		x.fail("lost wake-up: %d tasks queued, every worker asleep or gone, no wake pending", x.queued())
	}
	// The idle list holds each listed sleeper once, spill below fleet.
	var on [exFleet + exSpill]int
	for j, k := range s.idle[:s.idleN] {
		on[k]++
		if j > 0 && k >= exFleet && s.idle[j-1] < exFleet {
			x.fail("%s lies above %s on the idle list: a fleet worker would be woken last", who(int(k)), who(int(s.idle[j-1])))
		}
	}
	for k, n := range on {
		if n > 1 || x.mirror(k).listed != (n == 1) {
			x.fail("%s is on the idle list %d times with listed %v", who(k), n, x.mirror(k).listed)
		}
	}
	if n, live := e.spills.Load(), s.liveSpills(); n != int64(live) || live > exSpill {
		x.fail("spills counts %d live spill workers, %d exist, cap %d", n, live, exSpill)
	}
	// sample starts a spill worker only when none it started is still to
	// begin, so at most one ever is.
	if n, st := e.spillsStarting.Load(), s.startingSpills(); n != int64(st) || st > 1 {
		x.fail("spillsStarting counts %d, %d spill workers have not begun; want equal, at most 1", n, st)
	}
}

// terminal asserts what a finished run leaves: every task run once,
// every worker and the monitor gone, the idle list empty.
func (x *explorer) terminal() {
	x.ends++
	for id, d := range x.s.done {
		if d != 1 {
			x.fail("terminal: task %d ran %d times", id, d)
		}
	}
	for k := 0; k < exFleet+exSpill; k++ {
		if m := x.mirror(k); m.phase != gone {
			x.fail("terminal: %s is still %s", who(k), phaseNames[m.phase])
		}
	}
	if !x.s.monDone || len(x.e.idle) != 0 {
		x.fail("terminal: monitor done %v, %d sleepers listed", x.s.monDone, len(x.e.idle))
	}
}

// dfs explores every state reachable from the current one.
func (x *explorer) dfs() {
	cur := x.s
	var buf [exFleet*2 + exSpill*2 + 3]step
	steps := x.steps(buf[:0])
	if len(steps) == 0 {
		x.terminal()
		return
	}
	for _, st := range steps {
		x.restore(cur)
		x.path = append(x.path, st)
		x.apply(st)
		x.moves++
		x.check()
		if _, ok := x.seen[x.s]; !ok {
			x.seen[x.s] = struct{}{}
			x.dfs()
		}
		x.path = x.path[:len(x.path)-1]
	}
}

func who(k int) string {
	if k < exFleet {
		return fmt.Sprintf("fleet%d", k)
	}
	return fmt.Sprintf("spill%d", k-exFleet)
}

// TestExploreIdleProtocol runs the explorer over every interleaving of
// the bounded executor. A panic inside a step (requeue's, say) is
// reported with the path that reached it.
func TestExploreIdleProtocol(t *testing.T) {
	x := newExplorer(t)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				x.fail("panic: %v", r)
			}
		}()
		x.check()
		x.seen[x.s] = struct{}{}
		x.dfs()
	}()
	t.Logf("%d states, %d moves, %d terminal states, %d ticks at the spill cap, in %v",
		len(x.seen), x.moves, x.ends, x.capped, time.Since(start).Round(time.Millisecond))
	if len(x.seen) < 10_000 {
		t.Fatalf("%d states explored, want at least 10 000", len(x.seen))
	}
}

func (x *explorer) fail(format string, args ...any) {
	x.t.Helper()
	var b strings.Builder
	for i, st := range x.path {
		fmt.Fprintf(&b, "\n  %2d. %v", i+1, st)
	}
	x.t.Fatalf("%s, after:%s", fmt.Sprintf(format, args...), b.String())
}
