package exec

import (
	"gridpipe/internal/grid"
	"gridpipe/internal/ring"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
)

// nodeServer is the FCFS multi-slot server of one grid node. All
// stages mapped to the node share its Cores service slots, which is the
// executable counterpart of the analytic model's "aggregate busy time
// per node" assumption.
//
// The server is allocation-free in steady state: its queue is a ring
// buffer, tasks come from the executor's pool, in-service tasks sit in
// a swap-remove slice (a deterministic order — unlike the seed's map —
// though not insertion order, since removal swaps the tail in), and
// completions are scheduled through one bound callback instead of a
// per-task closure.
type nodeServer struct {
	e     *Executor
	node  *grid.Node
	queue ring.FIFO[*task]
	busy  int
	// inService tracks tasks currently holding a slot, for the
	// kill-restart protocol. Each task records its index for O(1)
	// swap-removal.
	inService []*task
	finishFn  func(any) // bound once: finish(task) without a closure per event
}

func newNodeServer(e *Executor, n *grid.Node) *nodeServer {
	s := &nodeServer{e: e, node: n}
	s.finishFn = func(arg any) { s.finish(arg.(*task)) }
	return s
}

// enqueue adds an item for service at the given stage.
func (s *nodeServer) enqueue(it *item, stage int) {
	t := s.e.getTask(it, stage, s.node.ID)
	s.queue.Push(t)
	s.dispatch()
}

// dispatch starts service while slots and work are available. A Down
// node serves nothing; a Draining node keeps serving the queue it
// already accepted.
func (s *nodeServer) dispatch() {
	if s.e.unavail > 0 && s.node.State() == grid.Down {
		return
	}
	for s.busy < s.node.Cores {
		t, ok := s.queue.Pop()
		if !ok {
			break
		}
		s.start(t)
	}
}

func (s *nodeServer) start(t *task) {
	now := s.e.eng.Now()
	work := t.it.work[t.stage]
	if sh := s.e.share; sh != nil {
		// Account the newcomer before it joins the in-service slice so
		// the rescale pass touches only the tasks already running.
		mult := sh.beginService(s, now)
		t.rem, t.lastT, t.mult = work, now, mult
		work = work / mult
	}
	s.busy++
	t.svcIdx = int32(len(s.inService))
	s.inService = append(s.inService, t)
	t.serviceT0 = now
	dur := s.node.ServiceDuration(work, now)
	t.completion = s.e.eng.ScheduleArg(dur, s.finishFn, t)
}

// unservice removes t from the in-service set by swap-removal.
func (s *nodeServer) unservice(t *task) {
	last := len(s.inService) - 1
	moved := s.inService[last]
	s.inService[t.svcIdx] = moved
	moved.svcIdx = t.svcIdx
	s.inService[last] = nil
	s.inService = s.inService[:last]
}

func (s *nodeServer) finish(t *task) {
	s.unservice(t)
	s.busy--
	now := s.e.eng.Now()
	if sh := s.e.share; sh != nil {
		sh.endService(s, now)
	}
	it, stage, dur := t.it, t.stage, now-t.serviceT0
	// Recycle before routing: the transfer/delivery below may enqueue
	// the item's next stage and reuse this very task.
	s.e.putTask(t)
	if it.dropped {
		// A sibling part exhausted the item's retry budget while this
		// one was in service; the result is discarded.
		s.dispatch()
		return
	}
	s.e.stageFinished(it, stage, s.node.ID, dur)
	s.dispatch()
}

// abort cancels an in-service task (kill-restart protocol) and frees
// its slot. The caller re-routes the item and recycles the task.
func (s *nodeServer) abort(t *task) {
	t.completion.Cancel()
	t.completion = sim.Event{}
	s.unservice(t)
	s.busy--
	if sh := s.e.share; sh != nil {
		sh.endService(s, s.e.eng.Now())
	}
	s.dispatch()
}

// removeQueued extracts every queued task satisfying the predicate,
// without disturbing relative order of the rest.
func (s *nodeServer) removeQueued(pred func(*task) bool) []*task {
	return s.queue.RemoveIf(pred)
}

// linkServer serialises transfers over one directed link: the
// bandwidth term occupies the link FCFS, the latency term is a pure
// trailing delay (transfers pipeline behind each other as on a real
// path).
//
// The instant the wire frees depends only on the previous free
// instant, the transfer's start and the link's TransferDuration at that
// start, so the server keeps it as one float and a transfer costs one
// calendar event: its delivery.
type linkServer struct {
	e    *Executor
	link grid.Link
	// dest is the receiving node: one linkServer exists per directed
	// node pair. Redirects on arrival are handled by deliver.
	dest grid.NodeID
	// freeAt is when the last accepted transfer's serialisation ends.
	freeAt float64
}

// transfer is one pooled part movement over a link: its destination
// stage and size.
type transfer struct {
	ls    *linkServer
	it    *item
	stage int // destination stage (NumStages = the sink)
	bytes float64
}

// enqueue accepts a transfer: it starts when the wire frees (now, on an
// idle link), occupies the wire for its serialisation time only, and
// arrives one latency after that.
func (s *linkServer) enqueue(it *item, stage int, bytes float64) {
	start := s.e.eng.Now()
	if s.freeAt > start {
		start = s.freeAt
	}
	serial := s.link.TransferDuration(bytes, start) - s.link.Latency
	if serial < 0 {
		serial = 0
	}
	s.freeAt = start + serial
	s.e.eng.AtArg(s.freeAt+s.link.Latency, deliverTx, s.e.getTransfer(s, it, stage, bytes))
}

// deliverTx is the delivery callback every link shares; the pooled
// *transfer is its event argument, so no hop allocates a closure.
func deliverTx(arg any) {
	tx := arg.(*transfer)
	e, it, stage, dest, bytes := tx.ls.e, tx.it, tx.stage, tx.ls.dest, tx.bytes
	e.putTransfer(tx)
	e.deliver(it, stage, dest, bytes)
}

// poissonSource generates exponential inter-arrival gaps.
type poissonSource struct {
	r    *rng.Rand
	rate float64
}

func newPoissonSource(seed uint64, rate float64) *poissonSource {
	return &poissonSource{r: rng.New(seed), rate: rate}
}

func (p *poissonSource) next() float64 { return p.r.Exp(p.rate) }
