// Package exec runs a mapped pipeline on the simulated grid in virtual
// time. It is the measurement substrate of every experiment: the
// analytic model predicts, exec measures.
//
// Execution model
//
//   - Each grid node is a FCFS server with Cores service slots shared
//     by all stages mapped to it; service durations integrate the
//     node's time-varying effective speed.
//   - Each directed node pair is a FCFS link whose occupancy is the
//     bandwidth term of a transfer; the latency term is a pure delay
//     that overlaps with subsequent transfers (a pipelined network).
//     A transfer costs one calendar event, its delivery.
//   - Input admission is CONWIP-style: a bounded number of items is in
//     flight at once (a saturated source behind a window), which is the
//     discrete-event analogue of the bounded inter-stage buffers of the
//     real skeleton. An optional Poisson arrival process replaces the
//     saturated source for latency studies.
//   - Replicated stages deal items round-robin across replicas.
//   - Work demands: an item's whole demand row (one reference-seconds
//     figure per stage) is drawn when it is admitted. Rows come in
//     blocks of 256 seqs; while the event loop admits one block, a
//     short-lived helper goroutine draws the next (demand.go), and the
//     loop draws a block itself when no helper has begun it. The
//     sampler must therefore be a pure function of (stage, seq), and
//     virtual time does not depend on which goroutine drew a row.
//
// Routing follows the spec's stage graph (internal/topo): a completed
// stage emits one part per out-edge (each paying its own transfer), a
// fan-in stage joins one part per in-edge before starting service, and
// all parts of one item converge on the same replica of a fan-in stage
// so the join is local. Linear pipelines (topo.Graph.Linear) take the
// fast path — the successor list of stage i is exactly {i+1} — and
// reproduce the pre-graph executor's event sequence bit for bit
// (pinned by golden_test.go).
//
// Reconfiguration (Remap) supports two protocols measured in
// experiment A2: drain-safe (queued items migrate with a paid transfer,
// in-service items finish where they run — nothing is lost) and
// kill-restart (in-service items on re-mapped stages are aborted and
// redone at the new location).
package exec

import (
	"fmt"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
	"gridpipe/internal/sim"
	"gridpipe/internal/topo"
)

// Options tune an Executor.
type Options struct {
	// MaxInFlight is the CONWIP window: the number of items admitted
	// into the pipeline at once. Zero means 2× the stage count.
	MaxInFlight int
	// TotalItems bounds the run; zero means unlimited (use RunUntil).
	TotalItems int
	// ArrivalRate, when positive, replaces the saturated source with a
	// Poisson process of that rate (items/s).
	ArrivalRate float64
	// WorkSampler returns the service demand in reference-seconds of
	// item seq at stage. It must be a pure function of (stage, seq),
	// safe to call from another goroutine: rows are drawn ahead of
	// admission, a block at a time, by a helper goroutine or by the
	// event loop, and each (stage, seq) is asked for once. When
	// TotalItems is set, no seq at or past it is asked for. Nil means
	// the deterministic spec work.
	WorkSampler func(stage, seq int) float64
	// Seed drives the Poisson arrival stream.
	Seed uint64
	// maxRetries is how many crash-induced re-dispatches an item
	// survives before it is dropped and counted lost. Zero means the
	// default (8); negative means never drop. Only the churn tests
	// choose another value.
	maxRetries int
	// Share, when non-nil, is the cluster-wide contention ledger this
	// executor multiplexes through: several executors attached to one
	// NodeShares split each node's capacity proportionally (see
	// share.go). Nil — the single-job case — keeps the executor
	// bit-identical to the pre-cluster behaviour.
	Share *NodeShares
}

// RemapProtocol selects how in-flight work is handled during a remap.
type RemapProtocol int

const (
	// DrainSafe migrates queued items (paying their transfer) and lets
	// in-service items complete where they run. No work is lost.
	DrainSafe RemapProtocol = iota
	// KillRestart aborts in-service items of stages whose placement
	// changed and redoes them at the new location.
	KillRestart
)

// String renders the protocol name.
func (p RemapProtocol) String() string {
	switch p {
	case DrainSafe:
		return "drain-safe"
	case KillRestart:
		return "kill-restart"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// RemapStats reports what one reconfiguration did.
type RemapStats struct {
	// Moved is the number of queued items migrated to new nodes.
	Moved int
	// Killed is the number of in-service items aborted (KillRestart).
	Killed int
	// RedoneWork is the reference-seconds of service discarded.
	RedoneWork float64
	// Changed reports whether any stage actually moved.
	Changed bool
}

// item is one unit flowing through the pipeline. Items are pooled on
// the executor: admitted from the free list, recycled at completion.
// On a stage graph with splits an item is in several places at once;
// its location lives in the tasks/transfers referencing it (each of
// which carries an explicit stage), not on the item itself.
type item struct {
	seq     int
	work    []float64 // service demand per stage, filled at admission
	started float64   // admission time
	// pending[s] counts the in-edge parts still to arrive before
	// fan-in stage s may start service; dest[s] is the replica all of
	// the item's parts converge on (-1 until first routed); joined[s]
	// is the payload already accumulated there (what a relocation must
	// move if a remap invalidates the replica mid-join). All three are
	// allocated only when the graph has fan-in stages — linear
	// pipelines never touch them.
	pending []int32
	dest    []grid.NodeID
	joined  []float64
	// joinEpoch[s] records the node crash-epoch under which the item's
	// join at stage s accumulated its parts: if the replica crashed and
	// rejoined mid-join, the epochs disagree and the accumulated parts
	// (which died with the crash) are re-fetched from the upstream
	// boundary. Allocated alongside pending/dest/joined.
	joinEpoch []uint32
	// tries counts crash-induced re-dispatches (per-item retry
	// accounting); dropped tombstones an item counted lost so sibling
	// parts still in flight are discarded on sight. Both reset at
	// admission.
	tries   int32
	dropped bool
}

// task is an item waiting for or receiving service at a stage replica.
// Tasks are pooled alongside items.
type task struct {
	it         *item
	stage      int // the stage this task serves
	node       grid.NodeID
	completion sim.Event // pending while in service
	serviceT0  float64
	svcIdx     int32 // position in the node's in-service slice
	// Multi-tenant share accounting (cluster runs only; see share.go):
	// remaining reference-seconds, the time progress was last banked,
	// and the capacity share it is progressing under.
	rem   float64
	lastT float64
	mult  float64
}

// edgeHop is one precomputed routing entry: successor stage and the
// per-item payload the connecting edge carries.
type edgeHop struct {
	to    int
	bytes float64
}

// Executor simulates one pipeline run.
type Executor struct {
	eng     *sim.Engine
	g       *grid.Grid
	spec    model.PipelineSpec
	mapping model.Mapping
	opts    Options

	// Routing tables derived from the spec's stage graph. succ[s]
	// lists stage s's out-edges; indeg[s] is the fan-in width;
	// inbytes[s] is the total inbound payload of a joined item
	// (charged on migrations/redirects); exit is the unique exit
	// stage; hasMerge is false on the linear fast path.
	graph    *topo.Graph
	succ     [][]edgeHop
	indeg    []int32
	inbytes  []float64
	exit     int
	hasMerge bool
	// pred[s] lists stage s's in-edges (edgeHop.to holds the
	// predecessor stage); multiPart is true when the graph can put one
	// item in several places at once (any fan-out or fan-in).
	pred      [][]edgeHop
	multiPart bool

	mon   *monitor.Monitor
	nodes []*nodeServer
	// linksFrom[a] holds the links out of node a this executor has
	// used: a lookup scans one source's fan-out (bounded by the stage
	// graph's out-edges times replica fan), and storage grows with the
	// pairs used, not with n².
	linksFrom [][]*linkServer
	// share is the cluster contention ledger (nil for single-job runs;
	// every multi-tenant branch is guarded on it); shareSeq is this
	// executor's position in the ledger's attach order.
	share    *NodeShares
	shareSeq int

	rr []int // round-robin counters per stage

	admitted   int
	inFlight   int
	completed  int
	migrations int     // items moved by remaps
	redone     float64 // reference-seconds redone after kills

	// Node lifecycle state (see churn.go). unavail counts nodes not
	// accepting new work (Down or Draining): the hot-path guard — every
	// churn branch is skipped while it is zero, keeping no-churn runs
	// bit-identical to the pre-lifecycle executor.
	unavail       int
	epoch         []uint32 // per-node crash epoch (bumped by nodeDown)
	churnEvs      []churnEv
	lifecycleHook func(now float64, n grid.NodeID, s grid.NodeState)
	maxRetries    int
	lost          int
	retries       int
	lostWork      float64
	parked        []parkedPart
	parkedAlt     []parkedPart
	// Test hooks for the conservation property tests: exactly-once
	// completion/loss per admitted sequence number.
	onComplete func(seq int)
	onLost     func(seq int)

	latencies []float64 // per-item pipeline traversal times
	poisson   *poissonSource
	demand    demands // the sampled work rows, drawn ahead (demand.go)

	// Free lists: steady-state admission, service, and transfer reuse
	// these instead of allocating per item/task/hop.
	itemFree []*item
	taskFree []*task
	txFree   []*transfer
}

// New builds an executor; the pipeline starts admitting items when
// Start is called.
func New(eng *sim.Engine, g *grid.Grid, spec model.PipelineSpec, m model.Mapping, opts Options) (*Executor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(spec.NumStages(), g.NumNodes()); err != nil {
		return nil, err
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * spec.NumStages()
	}
	e := &Executor{
		eng:     eng,
		g:       g,
		spec:    spec,
		mapping: m.Clone(),
		opts:    opts,
		mon:     monitor.New(spec.NumStages()),
		rr:      make([]int, spec.NumStages()),
	}
	e.graph = spec.Graph()
	ns := spec.NumStages()
	e.exit = e.graph.Exit()
	e.succ = make([][]edgeHop, ns)
	e.indeg = make([]int32, ns)
	e.inbytes = make([]float64, ns)
	e.pred = make([][]edgeHop, ns)
	for i := 0; i < ns; i++ {
		for _, ei := range e.graph.OutEdges(i) {
			ed := e.graph.Edges[ei]
			e.succ[i] = append(e.succ[i], edgeHop{to: ed.To, bytes: ed.Bytes})
		}
		for _, ei := range e.graph.InEdges(i) {
			ed := e.graph.Edges[ei]
			e.pred[i] = append(e.pred[i], edgeHop{to: ed.From, bytes: ed.Bytes})
		}
		e.indeg[i] = int32(e.graph.InDegree(i))
		e.inbytes[i] = e.graph.InBytesOf(i, spec.InBytes)
		if e.indeg[i] > 1 {
			e.hasMerge = true
		}
		if len(e.succ[i]) > 1 {
			e.multiPart = true
		}
	}
	if e.hasMerge {
		e.multiPart = true
	}
	e.maxRetries = opts.maxRetries
	if e.maxRetries == 0 {
		e.maxRetries = 8
	} else if e.maxRetries < 0 {
		e.maxRetries = 0 // unlimited
	}
	e.nodes = make([]*nodeServer, g.NumNodes())
	e.linksFrom = make([][]*linkServer, g.NumNodes())
	e.epoch = make([]uint32, g.NumNodes())
	for i := range e.nodes {
		e.nodes[i] = newNodeServer(e, g.Node(grid.NodeID(i)))
	}
	if opts.ArrivalRate > 0 {
		e.poisson = newPoissonSource(opts.Seed, opts.ArrivalRate)
	}
	e.demand.init(opts.WorkSampler, ns)
	if opts.Share != nil {
		if err := opts.Share.attach(e); err != nil {
			return nil, err
		}
		e.share = opts.Share
	}
	return e, nil
}

// SetItemHooks registers exactly-once callbacks fired when an item
// completes or is dropped (by admitted sequence number). The cluster
// layer uses them to track per-job progress while several executors
// share one engine; the churn conservation tests use them to pin the
// admitted == completed + lost + in-flight invariant.
func (e *Executor) SetItemHooks(onComplete, onLost func(seq int)) {
	e.onComplete = onComplete
	e.onLost = onLost
}

// Monitor exposes the run-time instrumentation.
func (e *Executor) Monitor() *monitor.Monitor { return e.mon }

// Mapping returns the current mapping without copying it; the caller
// must not modify it. Remap installs a fresh mapping rather than
// editing this one, so a mapping read earlier keeps describing the
// placement it was read under.
func (e *Executor) Mapping() model.Mapping { return e.mapping }

// Done returns the number of completed items.
func (e *Executor) Done() int { return e.completed }

// InFlight returns the number of items currently inside the pipeline.
func (e *Executor) InFlight() int { return e.inFlight }

// Migrations returns how many queued items remaps have moved.
func (e *Executor) Migrations() int { return e.migrations }

// RedoneWork returns the reference-seconds discarded by kill-restart
// remaps.
func (e *Executor) RedoneWork() float64 { return e.redone }

// Latencies returns per-item pipeline traversal times in completion
// order (shared slice).
func (e *Executor) Latencies() []float64 { return e.latencies }

// Start begins admitting items. With a Poisson source it schedules the
// first arrival; with the saturated source it fills the CONWIP window.
func (e *Executor) Start() {
	e.demand.total = e.opts.TotalItems
	if e.poisson != nil {
		e.scheduleNextArrival()
		return
	}
	for e.canAdmit() {
		e.admit()
	}
}

func (e *Executor) canAdmit() bool {
	if e.opts.TotalItems > 0 && e.admitted >= e.opts.TotalItems {
		return false
	}
	return e.inFlight < e.opts.MaxInFlight
}

// poissonArrival is the shared arrival trampoline: one bound function
// for all executors keeps the arrival stream allocation-free.
func poissonArrival(arg any) {
	e := arg.(*Executor)
	// Poisson arrivals ignore the window: queueing is the point.
	e.admit()
	e.scheduleNextArrival()
}

func (e *Executor) scheduleNextArrival() {
	if e.opts.TotalItems > 0 && e.admitted >= e.opts.TotalItems {
		return
	}
	gap := e.poisson.next()
	e.eng.ScheduleArg(gap, poissonArrival, e)
}

// admit injects the next item at the source node.
func (e *Executor) admit() {
	it := e.getItem()
	it.seq = e.admitted
	it.started = e.eng.Now()
	it.tries = 0
	it.dropped = false
	if e.demand.sampler != nil {
		copy(it.work, e.demand.row(it.seq))
	}
	if e.hasMerge {
		for i := range it.pending {
			it.pending[i] = e.indeg[i]
			it.dest[i] = -1
			it.joined[i] = 0
		}
	}
	e.admitted++
	e.inFlight++
	entry := e.graph.Entry()
	dest := e.pickReplica(entry)
	e.transfer(it, entry, e.spec.Source, dest, e.spec.InBytes)
}

// getItem takes an item from the pool, with its work slice sized for
// the spec (and holding the spec's work when there is no sampler); the
// caller fills the per-run fields.
func (e *Executor) getItem() *item {
	if n := len(e.itemFree); n > 0 {
		it := e.itemFree[n-1]
		e.itemFree = e.itemFree[:n-1]
		return it
	}
	it := &item{work: make([]float64, e.spec.NumStages())}
	if e.demand.sampler == nil {
		for s := range it.work {
			it.work[s] = e.spec.Stages[s].Work
		}
	}
	if e.hasMerge {
		it.pending = make([]int32, e.spec.NumStages())
		it.dest = make([]grid.NodeID, e.spec.NumStages())
		it.joined = make([]float64, e.spec.NumStages())
		it.joinEpoch = make([]uint32, e.spec.NumStages())
	}
	return it
}

func (e *Executor) putItem(it *item) {
	e.itemFree = append(e.itemFree, it)
}

// getTask takes a task from the pool, bound to an item, stage and
// node.
func (e *Executor) getTask(it *item, stage int, node grid.NodeID) *task {
	if n := len(e.taskFree); n > 0 {
		t := e.taskFree[n-1]
		e.taskFree = e.taskFree[:n-1]
		t.it, t.stage, t.node = it, stage, node
		return t
	}
	return &task{it: it, stage: stage, node: node}
}

func (e *Executor) putTask(t *task) {
	t.it = nil
	t.completion = sim.Event{}
	e.taskFree = append(e.taskFree, t)
}

// getTransfer takes a link transfer from the pool.
func (e *Executor) getTransfer(ls *linkServer, it *item, stage int, bytes float64) *transfer {
	if n := len(e.txFree); n > 0 {
		tx := e.txFree[n-1]
		e.txFree = e.txFree[:n-1]
		tx.ls, tx.it, tx.stage, tx.bytes = ls, it, stage, bytes
		return tx
	}
	return &transfer{ls: ls, it: it, stage: stage, bytes: bytes}
}

func (e *Executor) putTransfer(tx *transfer) {
	tx.ls, tx.it = nil, nil
	e.txFree = append(e.txFree, tx)
}

// pickReplica deals the next item of a stage round-robin. While any
// node is unavailable the dealer skips non-Up replicas; if none is
// live it falls back to the blind pick, so the part bounces at
// delivery and parks until capacity returns.
func (e *Executor) pickReplica(stage int) grid.NodeID {
	replicas := e.mapping.Assign[stage]
	if e.unavail > 0 {
		for range replicas {
			n := replicas[e.rr[stage]%len(replicas)]
			e.rr[stage]++
			if e.isUp(n) {
				return n
			}
		}
	}
	n := replicas[e.rr[stage]%len(replicas)]
	e.rr[stage]++
	return n
}

// replicaFor picks the destination replica for routing one of it's
// parts into stage. Fan-in stages get a sticky choice — every part of
// one item must converge on the same replica so the join is local —
// advancing the round-robin dealer once per item, not once per part.
func (e *Executor) replicaFor(it *item, stage int) grid.NodeID {
	if !e.hasMerge || e.indeg[stage] <= 1 {
		return e.pickReplica(stage)
	}
	if it.dest[stage] < 0 {
		it.dest[stage] = e.pickReplica(stage)
	}
	return it.dest[stage]
}

// redirectDest picks where to send a part whose stage is no longer
// mapped to the node it reached (the mapping changed in flight). For
// fan-in stages the sticky choice is reused while it still points at a
// live replica, so parts separated by a remap still converge; when the
// sticky replica went stale, any parts already joined there relocate
// to the new replica as one consolidated part — a real transfer the
// join waits for, counted as a migration.
func (e *Executor) redirectDest(it *item, stage int) grid.NodeID {
	if e.hasMerge && e.indeg[stage] > 1 {
		old := it.dest[stage]
		if old >= 0 && onNode(e.mapping.Assign[stage], old) {
			// The sticky replica survives while it is Up, or while it is
			// Draining with this item's join already in progress (a
			// draining node finishes joins it accepted).
			st := grid.Up
			if e.unavail > 0 {
				st = e.g.Node(old).State()
			}
			if st == grid.Up || (st == grid.Draining && e.joinInProgress(it, stage)) {
				return old
			}
		}
		d := e.pickReplica(stage)
		it.dest[stage] = d
		it.joinEpoch[stage] = e.epoch[d]
		if old >= 0 && old != d && e.joinInProgress(it, stage) {
			moved := it.joined[stage]
			it.joined[stage] = 0
			it.pending[stage]++ // the join must wait for the relocation
			e.migrations++
			// Parts joined at a crashed replica are gone with it; they
			// are conservatively re-fetched from the upstream boundary
			// instead of "moving" off the dead node.
			src := old
			if e.unavail > 0 && e.g.Node(old).State() == grid.Down {
				src = e.boundarySrc(stage)
			}
			e.transfer(it, stage, src, d, moved)
		}
		return d
	}
	return e.pickReplica(stage)
}

// transfer moves one part of an item bound for the given stage (or the
// sink, stage == NumStages) from node a towards node b, then delivers
// it. Intra-node movement is effectively free.
func (e *Executor) transfer(it *item, stage int, a, b grid.NodeID, bytes float64) {
	if a == b {
		e.deliver(it, stage, b, bytes)
		return
	}
	e.link(a, b).enqueue(it, stage, bytes)
}

func (e *Executor) link(a, b grid.NodeID) *linkServer {
	for _, ls := range e.linksFrom[a] {
		if ls.dest == b {
			return ls
		}
	}
	ls := &linkServer{e: e, link: e.g.Link(a, b), dest: b}
	e.linksFrom[a] = append(e.linksFrom[a], ls)
	return ls
}

// deliver hands one part (carrying bytes of payload) bound for the
// given stage to a node. If the stage is no longer mapped there (the
// mapping changed while the part was in flight), the part is forwarded
// to a live replica — an extra hop of the same payload, exactly what a
// real redirect costs. At a fan-in stage the part joins the item's
// tally and service starts only when the last part has arrived.
func (e *Executor) deliver(it *item, stage int, n grid.NodeID, bytes float64) {
	if it.dropped {
		return // tombstoned: a sibling part exhausted the retry budget
	}
	if stage >= e.spec.NumStages() {
		// Arrived at the sink: the item is done.
		e.complete(it)
		return
	}
	if !e.accepts(it, stage, n) {
		if e.unavail > 0 && !e.stageHasLive(stage) {
			// No live replica anywhere: the part returns to its stage
			// boundary and waits for a rejoin, join, or remap.
			e.park(it, stage, bytes)
			return
		}
		dest := e.redirectDest(it, stage)
		e.transfer(it, stage, n, dest, bytes)
		return
	}
	if e.hasMerge && e.indeg[stage] > 1 {
		if it.pending[stage] == e.indeg[stage] {
			// First part opens the join under the node's current crash
			// epoch.
			it.joinEpoch[stage] = e.epoch[n]
		} else if it.joinEpoch[stage] != e.epoch[n] {
			// The replica crashed (and rejoined) mid-join: the parts it
			// had accumulated died with it. Re-fetch them from the
			// upstream boundary as one consolidated part the join must
			// wait for; crash recovery, so it counts on the retry
			// ledger (not against the item's drop budget — no service
			// progress is redone, only payload re-moved).
			moved := it.joined[stage]
			it.joined[stage] = 0
			it.joinEpoch[stage] = e.epoch[n]
			if moved > 0 {
				it.pending[stage]++
				e.retries++
				e.transfer(it, stage, e.boundarySrc(stage), n, moved)
			}
		}
		it.joined[stage] += bytes
		it.pending[stage]--
		if it.pending[stage] > 0 {
			return // waiting for the item's remaining parts
		}
	}
	e.nodes[n].enqueue(it, stage)
}

// joinInProgress reports whether the item has a fan-in join open at
// stage: some but not all parts arrived. Routing (redirectDest) and
// acceptance (accepts) share it so a draining replica's obligations
// cannot diverge between the two.
func (e *Executor) joinInProgress(it *item, stage int) bool {
	return it.pending[stage] > 0 && it.pending[stage] < e.indeg[stage]
}

// accepts reports whether node n takes a part of it bound for stage:
// the stage must be mapped there and the node Up — or Draining with
// this item's fan-in join already in progress, since a draining node
// finishes the joins it accepted.
func (e *Executor) accepts(it *item, stage int, n grid.NodeID) bool {
	if !onNode(e.mapping.Assign[stage], n) {
		return false
	}
	if e.unavail == 0 {
		return true
	}
	switch e.g.Node(n).State() {
	case grid.Up:
		return true
	case grid.Draining:
		return e.hasMerge && e.indeg[stage] > 1 && it.dest[stage] == n &&
			e.joinInProgress(it, stage)
	default:
		return false
	}
}

// bytesInto returns the total message size entering the given stage:
// the source payload for the entry, otherwise the sum over in-edges (a
// fan-in stage's migrations move the whole joined item).
func (e *Executor) bytesInto(stage int) float64 {
	return e.inbytes[stage]
}

// stageFinished is called when a node completes service for an item at
// a stage: the exit stage ships its result to the sink, every other
// stage emits one part per out-edge, each paying that edge's transfer.
func (e *Executor) stageFinished(it *item, stage int, n grid.NodeID, serviceDur float64) {
	e.mon.Stage(stage).RecordService(serviceDur, e.eng.Now())
	if stage == e.exit {
		e.transfer(it, e.spec.NumStages(), n, e.spec.Sink, e.spec.Stages[stage].OutBytes)
		return
	}
	for _, hop := range e.succ[stage] {
		dest := e.replicaFor(it, hop.to)
		e.transfer(it, hop.to, n, dest, hop.bytes)
	}
}

func (e *Executor) complete(it *item) {
	e.completed++
	e.inFlight--
	now := e.eng.Now()
	e.mon.RecordCompletion(now)
	e.latencies = append(e.latencies, now-it.started)
	if e.onComplete != nil {
		e.onComplete(it.seq)
	}
	e.putItem(it)
	if e.poisson == nil {
		for e.canAdmit() {
			e.admit()
		}
	}
}

// RunItems admits and processes exactly n items to completion,
// returning the virtual makespan. It must be called before any events
// have run. It steps the engine only until the n-th completion, so
// perpetual background events (an adaptive controller's ticker, load
// sensors) do not keep the run alive.
func (e *Executor) RunItems(n int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("exec: RunItems with n=%d", n)
	}
	e.opts.TotalItems = n
	e.Start()
	start := e.eng.Now()
	// Items dropped by churn count against the target: the run ends
	// when every admitted item is accounted for (completed or lost).
	for e.completed+e.lost < n && e.eng.Step() {
	}
	if e.completed+e.lost != n {
		return 0, fmt.Errorf("exec: completed %d and lost %d of %d items (deadlock?)",
			e.completed, e.lost, n)
	}
	return e.eng.Now() - start, nil
}

// RunUntil processes items (saturated or Poisson source) until virtual
// time t, returning the number completed.
func (e *Executor) RunUntil(t float64) int {
	e.Start()
	e.eng.RunUntil(t)
	return e.completed
}

func onNode(nodes []grid.NodeID, id grid.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
