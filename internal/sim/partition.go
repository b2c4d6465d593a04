// Partitioned parallel simulation: a ParallelEngine shards the event
// calendar into per-partition Engines advanced concurrently under a
// conservative synchronization window.
//
// The protocol is the classic conservative (YAWNS-style) windowed
// scheme. Every cross-partition interaction carries at least
// `lookahead` seconds of virtual latency — in the grid this is the
// minimum cross-partition link latency, at the cluster layer the lease
// transfer bound — so if the earliest pending event anywhere sits at
// time m, no partition can receive anything before m+lookahead. All
// partitions may therefore fire their events in [m, m+lookahead) in
// parallel without coordination. Cross-partition events raised during
// the window are staged in per-partition outboxes and exchanged only
// at the window edge, keeping the intra-window hot path exactly the
// single-threaded calendar: lock-free and allocation-free per event.
//
// Determinism: within a window each partition fires its own calendar
// in (time, seq) order, untouched by any other partition; at the edge
// the inbox merge delivers staged events in (time, source partition,
// send seq) order, so the destination calendar's tie-breaking sequence
// numbers are assigned identically on every run — results do not
// depend on the number of OS workers or on goroutine scheduling.
//
// A ParallelEngine with one partition never stages or exchanges
// anything: Send degenerates to ScheduleArg and Run to stepping the one
// calendar, so single-partition runs are bit-identical to the plain
// engine and all existing goldens hold.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
)

// xev is one staged cross-partition event: fire time, deterministic
// merge key (source partition, per-source send sequence), and the
// bound-callback pair of ScheduleArg.
type xev struct {
	time float64
	seq  uint64 // per-source send counter: the merge tie-breaker
	src  int32
	fn   func(any)
	arg  any
}

// Shard is one partition of a ParallelEngine: a full Engine calendar
// (all of Schedule/At/Cancel/Now works unchanged, and &shard.Engine
// can be handed to anything that drives a plain engine) plus the
// cross-partition Send staging area. During a window a Shard is owned
// exclusively by one worker goroutine; between windows the coordinator
// owns all of them.
type Shard struct {
	Engine
	id      int
	pe      *ParallelEngine
	outbox  [][]xev // outbox[dst]: events staged for partition dst this window
	inbox   []xev   // merge scratch, reused across windows
	sendSeq uint64
}

// Send schedules fn(arg) on partition dst after delay seconds of the
// sender's virtual time. A send to another partition must respect the
// engine's lookahead (delay >= lookahead) — that bound is what lets
// windows run concurrently — and is delivered at the next window edge.
// A send to the own partition is an ordinary local ScheduleArg with no
// lookahead requirement.
func (s *Shard) Send(dst int, delay float64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: Send with nil callback")
	}
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Send with invalid delay %v", delay))
	}
	if dst == s.id {
		s.ScheduleArg(delay, fn, arg)
		return
	}
	if dst < 0 || dst >= len(s.pe.parts) {
		panic(fmt.Sprintf("sim: Send to invalid partition %d of %d", dst, len(s.pe.parts)))
	}
	if delay < s.pe.lookahead {
		panic(fmt.Sprintf("sim: cross-partition Send with delay %v below lookahead %v",
			delay, s.pe.lookahead))
	}
	s.outbox[dst] = append(s.outbox[dst], xev{
		time: s.Engine.now + delay,
		seq:  s.sendSeq,
		src:  int32(s.id),
		fn:   fn,
		arg:  arg,
	})
	s.sendSeq++
}

// runWindow fires this partition's events with time < w (time <= w
// when incl is set) and parks the clock at the window edge. It runs on
// a worker goroutine with exclusive ownership of the shard.
func (s *Shard) runWindow(w float64, incl bool) {
	for {
		tm, ok := s.Engine.peek()
		if !ok || tm > w || (!incl && tm == w) {
			break
		}
		s.Engine.Step()
	}
	if s.Engine.now < w {
		s.Engine.now = w
	}
}

// ParallelEngine advances P partition calendars concurrently under
// conservative synchronization windows. Build with NewParallel,
// populate the partitions (Part(i)), then Run or RunUntil from one
// goroutine. The zero value is unusable.
type ParallelEngine struct {
	parts     []*Shard
	lookahead float64
	now       float64
	workers   int
}

// NewParallel builds a parallel engine with the given number of
// partitions and conservative lookahead: the minimum virtual latency
// of any cross-partition interaction (cross-partition Sends below it
// panic). It panics on parts < 1, and on a non-positive or NaN
// lookahead when parts > 1 (a single partition needs no lookahead).
func NewParallel(parts int, lookahead float64) *ParallelEngine {
	if parts < 1 {
		panic(fmt.Sprintf("sim: NewParallel with %d partitions", parts))
	}
	if parts > 1 && (lookahead <= 0 || math.IsNaN(lookahead)) {
		panic(fmt.Sprintf("sim: NewParallel with invalid lookahead %v", lookahead))
	}
	pe := &ParallelEngine{lookahead: lookahead, parts: make([]*Shard, parts)}
	for i := range pe.parts {
		sh := &Shard{id: i, pe: pe}
		if parts > 1 {
			sh.outbox = make([][]xev, parts)
		}
		pe.parts[i] = sh
	}
	return pe
}

// Part returns partition i.
func (pe *ParallelEngine) Part(i int) *Shard { return pe.parts[i] }

// Now returns the virtual clock: the time of the last fired event on
// the single-partition path, the last completed window edge otherwise.
func (pe *ParallelEngine) Now() float64 { return pe.now }

// SetWorkers bounds the OS-level parallelism of Run: at most n worker
// goroutines advance partitions within a window (0 = GOMAXPROCS,
// capped at the partition count either way). Results are identical for
// every worker count; only wall-clock changes.
func (pe *ParallelEngine) SetWorkers(n int) { pe.workers = n }

// Run fires events until every partition's calendar is empty and
// returns the final virtual time.
func (pe *ParallelEngine) Run() float64 {
	pe.run(math.Inf(1))
	return pe.now
}

// RunUntil fires events with time <= t — including cross-partition
// deliveries landing exactly at t — then advances every partition's
// clock to t. It panics when t is in the past.
func (pe *ParallelEngine) RunUntil(t float64) {
	if t < pe.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now=%v", t, pe.now))
	}
	pe.run(t)
	for _, p := range pe.parts {
		if p.Engine.now < t {
			p.Engine.now = t
		}
	}
	pe.now = t
}

// run advances windows until no event at time <= limit remains.
func (pe *ParallelEngine) run(limit float64) {
	if len(pe.parts) == 1 {
		pe.runSingle(limit)
		return
	}
	nw := pe.workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > len(pe.parts) {
		nw = len(pe.parts)
	}
	// The worker machinery lives in its own method: its goroutine
	// closure forces every captured variable onto the heap, and keeping
	// it out of the inline path keeps that path allocation-free.
	if nw > 1 {
		pe.runWorkers(limit, nw)
		return
	}
	for {
		w, incl, ok := pe.nextWindow(limit)
		if !ok {
			return
		}
		for _, p := range pe.parts {
			p.runWindow(w, incl)
		}
		pe.now = w
	}
}

// nextWindow exchanges staged sends and computes the next window: its
// end, whether the edge itself is included (the final window of a
// bounded run), and whether any event at time <= limit remains.
func (pe *ParallelEngine) nextWindow(limit float64) (w float64, incl, ok bool) {
	// Outboxes are drained at every window edge (and here, so that
	// Sends staged before Run are honoured), making the per-calendar
	// minimum the true global minimum.
	pe.exchange()
	m := math.Inf(1)
	for _, p := range pe.parts {
		if tm, ok := p.Engine.peek(); ok && tm < m {
			m = tm
		}
	}
	if math.IsInf(m, 1) || m > limit {
		return 0, false, false
	}
	w, incl = m+pe.lookahead, false
	if w > limit {
		// Final window of a bounded run: everything left at <= limit
		// fires. Cross sends raised here land at >= m+lookahead >
		// limit — except exactly-at-limit arrivals when m+lookahead
		// == limit, which the next loop iteration picks up.
		w, incl = limit, true
	}
	return w, incl, true
}

// runWorkers is the multi-goroutine window loop: nw persistent workers
// each pull partition indexes from a shared counter within a window.
// Spawned once per run, not per window.
func (pe *ParallelEngine) runWorkers(limit float64, nw int) {
	var (
		startCh = make(chan float64)
		inclCh  = make(chan bool, nw)
		doneCh  = make(chan struct{})
		next    atomic.Int64
	)
	for w := 0; w < nw; w++ {
		go func() {
			for wend := range startCh {
				incl := <-inclCh
				for {
					i := next.Add(1) - 1
					if int(i) >= len(pe.parts) {
						break
					}
					pe.parts[i].runWindow(wend, incl)
				}
				doneCh <- struct{}{}
			}
		}()
	}
	defer close(startCh)
	for {
		w, incl, ok := pe.nextWindow(limit)
		if !ok {
			return
		}
		next.Store(0)
		for i := 0; i < nw; i++ {
			startCh <- w
			inclCh <- incl
		}
		for i := 0; i < nw; i++ {
			<-doneCh
		}
		pe.now = w
	}
}

// runSingle is the single-partition fast path: the plain engine's
// loop, bit-identical to stepping an Engine / Engine.RunUntil.
func (pe *ParallelEngine) runSingle(limit float64) {
	p := pe.parts[0]
	for {
		tm, ok := p.Engine.peek()
		if !ok || tm > limit {
			break
		}
		p.Engine.Step()
	}
	pe.now = p.Engine.now
}

// exchange merges every partition's outboxes into the destination
// calendars, in (time, source partition, send seq) order so the
// destination's tie-breaking sequence numbers are deterministic. It
// runs on the coordinator between windows; the inbox scratch and the
// outbox slices are reused, so steady-state exchanges do not allocate.
func (pe *ParallelEngine) exchange() {
	for _, dst := range pe.parts {
		in := dst.inbox[:0]
		for _, src := range pe.parts {
			ob := src.outbox[dst.id]
			if len(ob) == 0 {
				continue
			}
			in = append(in, ob...)
			src.outbox[dst.id] = ob[:0]
		}
		if len(in) == 0 {
			continue
		}
		slices.SortFunc(in, func(a, b xev) int {
			switch {
			case a.time != b.time:
				if a.time < b.time {
					return -1
				}
				return 1
			case a.src != b.src:
				return int(a.src) - int(b.src)
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			default:
				return 0
			}
		})
		for i := range in {
			dst.Engine.AtArg(in[i].time, in[i].fn, in[i].arg)
			in[i].fn, in[i].arg = nil, nil // don't pin payloads until next reuse
		}
		dst.inbox = in
	}
}
