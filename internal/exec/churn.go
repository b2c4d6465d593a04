// Node lifecycle handling: the executor-side half of the churn
// subsystem (the schedule itself lives in internal/grid).
//
// A crash (node Down) loses everything physically on the node: queued
// and in-service tasks, and any half-joined fan-in parts. Items are
// not lost with it — the stage-boundary data is retained upstream (the
// sending side keeps an item's input until the receiving stage
// completes, the classic upstream-backup recovery of streaming
// dataflows) — so every affected item is re-dispatched from its last
// stage boundary: a fresh transfer of the stage's inbound payload from
// the predecessor stage's first live replica (the pipeline source for
// the entry stage). Each re-dispatch counts one retry against the
// item; an item whose retries exceed the executor's retry limit (8) is dropped and
// counted lost, preserving the conservation invariant
//
//	admitted == completed + lost + in-flight
//
// at every instant (the churn property tests pin it).
//
// When a stage has no live replica at all — its only nodes are Down,
// or Draining with no join in progress — parts bound for it park in a
// pooled holding list and re-dispatch when capacity returns: a rejoin,
// a join of a new node, or a remap that maps the stage onto live
// nodes. Parking models the real behaviour of a static mapping under
// failure (work backs up behind the dead node until it returns), which
// is exactly the baseline the fault-aware adaptive policy is measured
// against in experiment F9.
//
// A drain (node Draining) is the graceful counterpart: the node
// finishes its queue and in-service work, but accepts no new parts
// (only the remaining parts of fan-in joins it already started), and
// the mapping search excludes it like a Down node.
//
// All of this is pooled like the rest of the executor: churn event
// args are preallocated at install time, parked parts reuse a
// double-buffered slice, and the per-item retry counter lives on the
// pooled item — the no-churn hot path stays 0 allocs/item and is
// guarded by a single e.unavail == 0 check, so churn-free runs remain
// bit-identical to the pre-lifecycle executor (pinned by
// golden_test.go).
package exec

import (
	"fmt"

	"gridpipe/internal/grid"
)

// churnEv is the pooled argument of one scheduled lifecycle event.
type churnEv struct {
	e    *Executor
	node grid.NodeID
	kind grid.ChurnKind
}

// churnFire is the shared lifecycle trampoline: one bound function for
// all events keeps the schedule allocation-free after install.
func churnFire(arg any) {
	c := arg.(*churnEv)
	switch c.kind {
	case grid.ChurnCrash:
		c.e.nodeDown(c.node)
	case grid.ChurnRejoin, grid.ChurnJoin:
		c.e.nodeUp(c.node)
	case grid.ChurnDrain:
		c.e.nodeDrain(c.node)
	}
}

// InstallChurn arms the lifecycle schedule: every node is reset to Up,
// nodes that have not yet joined start Down, and each transition is
// scheduled on the engine at its virtual time. Call it after New and
// before any events have run. A nil or empty schedule is a no-op.
func (e *Executor) InstallChurn(cs *grid.ChurnSchedule) error {
	if cs == nil || len(cs.Events()) == 0 {
		return nil
	}
	if err := e.validateChurnInstall(); err != nil {
		return err
	}
	if err := cs.ValidateAgainst(e.g); err != nil {
		return err
	}
	e.g.ResetLifecycle()
	e.unavail = 0
	for _, name := range cs.InitiallyDown() {
		e.g.NodeByName(name).SetState(grid.Down)
		e.unavail++
	}
	evs := cs.Events()
	e.churnEvs = make([]churnEv, len(evs))
	for i, ev := range evs {
		e.churnEvs[i] = churnEv{e: e, node: e.g.NodeByName(ev.Node).ID, kind: ev.Kind}
		e.eng.AtArg(ev.T, churnFire, &e.churnEvs[i])
	}
	return nil
}

// SetLifecycleHook registers a callback fired after the executor has
// processed a lifecycle transition (tasks re-dispatched, parked parts
// flushed). The adaptive controller uses it to remap immediately on a
// crash instead of waiting for its next tick.
func (e *Executor) SetLifecycleHook(fn func(now float64, n grid.NodeID, s grid.NodeState)) {
	e.lifecycleHook = fn
}

// Lost returns the number of items dropped after exhausting their
// crash-retry budget.
func (e *Executor) Lost() int { return e.lost }

// Retries returns the number of crash-induced re-dispatches from stage
// boundaries.
func (e *Executor) Retries() int { return e.retries }

// LostWork returns the reference-seconds of service progress destroyed
// by crashes (analogous to RedoneWork for kill-restart remaps).
func (e *Executor) LostWork() float64 { return e.lostWork }

// Available reports whether node n currently accepts new work.
func (e *Executor) Available(n grid.NodeID) bool {
	return e.g.Node(n).State() == grid.Up
}

// AllAvailable reports whether every node is Up — the fast no-churn
// check the controller uses to skip building an availability mask.
func (e *Executor) AllAvailable() bool { return e.unavail == 0 }

// isUp is the hot-path availability check.
func (e *Executor) isUp(n grid.NodeID) bool {
	return e.g.Node(n).State() == grid.Up
}

// stageHasLive reports whether any replica of the stage accepts new
// work.
func (e *Executor) stageHasLive(stage int) bool {
	for _, n := range e.mapping.Assign[stage] {
		if e.isUp(n) {
			return true
		}
	}
	return false
}

// liveReplicaOf returns the stage's first live replica, falling back
// to the pipeline source (where stage-boundary data is always safe)
// when none is live.
func (e *Executor) liveReplicaOf(stage int) grid.NodeID {
	for _, n := range e.mapping.Assign[stage] {
		if e.isUp(n) {
			return n
		}
	}
	return e.spec.Source
}

// boundarySrc returns the node holding the stage's input boundary
// data: the predecessor stage's first live replica, or the pipeline
// source for the entry stage.
func (e *Executor) boundarySrc(stage int) grid.NodeID {
	if len(e.pred[stage]) == 0 {
		return e.spec.Source
	}
	return e.liveReplicaOf(e.pred[stage][0].to)
}

// nodeDown crashes a node: everything physically on it is lost.
// In-service tasks are aborted (their progress is destroyed), queued
// tasks are flushed, and every affected item is re-dispatched from its
// last stage boundary.
func (e *Executor) nodeDown(n grid.NodeID) {
	node := e.g.Node(n)
	st := node.State()
	if st == grid.Down {
		return
	}
	if st == grid.Up {
		e.unavail++
	}
	node.SetState(grid.Down)
	// Invalidate every fan-in join accumulating here: parts joined
	// under the old epoch are re-fetched if the node serves the same
	// join again after a rejoin (see deliver).
	e.epoch[n]++
	ns := e.nodes[n]
	// Abort in-service tasks from the tail: swap-removal keeps the
	// victim order deterministic, and abort's dispatch() is inert on a
	// Down node.
	for len(ns.inService) > 0 {
		t := ns.inService[len(ns.inService)-1]
		it, stage := t.it, t.stage
		e.lostWork += it.work[stage]
		ns.abort(t)
		e.putTask(t)
		e.retryFromBoundary(it, stage)
	}
	// Flush the queue in FIFO order.
	for {
		t, ok := ns.queue.Pop()
		if !ok {
			break
		}
		it, stage := t.it, t.stage
		e.putTask(t)
		e.retryFromBoundary(it, stage)
	}
	if e.lifecycleHook != nil {
		e.lifecycleHook(e.eng.Now(), n, grid.Down)
	}
}

// nodeUp brings a node (back) into service and re-dispatches any parts
// that were waiting for capacity.
func (e *Executor) nodeUp(n grid.NodeID) {
	node := e.g.Node(n)
	if node.State() == grid.Up {
		return
	}
	node.SetState(grid.Up)
	e.unavail--
	e.flushParked()
	e.nodes[n].dispatch()
	if e.lifecycleHook != nil {
		e.lifecycleHook(e.eng.Now(), n, grid.Up)
	}
}

// nodeDrain starts a graceful leave: accepted work keeps draining, new
// work is refused, schedulers exclude the node.
func (e *Executor) nodeDrain(n grid.NodeID) {
	node := e.g.Node(n)
	if node.State() != grid.Up {
		return
	}
	node.SetState(grid.Draining)
	e.unavail++
	if e.lifecycleHook != nil {
		e.lifecycleHook(e.eng.Now(), n, grid.Draining)
	}
}

// retryFromBoundary charges one retry against the item and re-enters
// it at the given stage's input boundary, dropping the item once its
// retry budget is exhausted.
func (e *Executor) retryFromBoundary(it *item, stage int) {
	if it.dropped {
		// A sibling part of the same item (e.g. a co-located task on
		// this very crash) already exhausted the budget: nothing to
		// re-dispatch, nothing to charge.
		return
	}
	it.tries++
	if e.maxRetries > 0 && int(it.tries) > e.maxRetries {
		// Budget exhausted: the item is dropped, nothing is
		// re-dispatched, so the retries ledger does not count this
		// attempt.
		e.drop(it)
		return
	}
	e.retries++
	e.retryDispatch(it, stage)
}

// retryDispatch routes one boundary re-entry (it does not count a
// retry; flushParked reuses it). Fan-in stages lose their join state
// with the crashed replica, so every in-edge part is re-requested from
// its producing stage's live replica.
func (e *Executor) retryDispatch(it *item, stage int) {
	if !e.stageHasLive(stage) {
		if e.hasMerge && e.indeg[stage] > 1 {
			e.park(it, stage, rejoinAll)
		} else {
			e.park(it, stage, e.bytesInto(stage))
		}
		return
	}
	if e.hasMerge && e.indeg[stage] > 1 {
		d := e.pickReplica(stage)
		it.dest[stage] = d
		it.pending[stage] = e.indeg[stage]
		it.joined[stage] = 0
		it.joinEpoch[stage] = e.epoch[d]
		for _, ph := range e.pred[stage] {
			src := e.liveReplicaOf(ph.to)
			e.transfer(it, stage, src, d, ph.bytes)
		}
		return
	}
	d := e.pickReplica(stage)
	e.transfer(it, stage, e.boundarySrc(stage), d, e.bytesInto(stage))
}

// rejoinAll marks a parked entry as a whole-item fan-in re-request
// rather than a single part of known size.
const rejoinAll = -1

// parkedPart is one part (or fan-in re-request) waiting for a live
// replica of its stage.
type parkedPart struct {
	it    *item
	stage int32
	bytes float64 // rejoinAll = re-request every in-edge part
}

// park shelves a part until capacity for its stage returns.
func (e *Executor) park(it *item, stage int, bytes float64) {
	e.parked = append(e.parked, parkedPart{it: it, stage: int32(stage), bytes: bytes})
}

// flushParked re-dispatches every parked part once; parts that still
// have no live replica re-park (into the double buffer, so one flush
// is a single pass and cannot loop).
func (e *Executor) flushParked() {
	if len(e.parked) == 0 {
		return
	}
	pend := e.parked
	e.parked = e.parkedAlt[:0]
	for _, p := range pend {
		if p.it.dropped {
			continue
		}
		if p.bytes == rejoinAll {
			e.retryDispatch(p.it, int(p.stage))
			continue
		}
		e.deliver(p.it, int(p.stage), e.boundarySrc(int(p.stage)), p.bytes)
	}
	e.parkedAlt = pend[:0]
}

// drop removes an item from the run and counts it lost. Single-part
// items (linear pipelines) recycle immediately; an item that may have
// sibling parts still in flight across a split is tombstoned instead —
// every later part of it is discarded on sight — and intentionally not
// pooled, since a stale reference could otherwise corrupt its next
// life.
func (e *Executor) drop(it *item) {
	if it.dropped {
		return
	}
	it.dropped = true
	e.lost++
	e.inFlight--
	if e.onLost != nil {
		e.onLost(it.seq)
	}
	if !e.multiPart {
		e.putItem(it)
	}
	if e.poisson == nil {
		for e.canAdmit() {
			e.admit()
		}
	}
}

// validateChurnInstall guards against installing churn twice (the
// schedule owns the grid's lifecycle state for the run).
func (e *Executor) validateChurnInstall() error {
	if e.churnEvs != nil {
		return fmt.Errorf("exec: churn schedule already installed")
	}
	return nil
}
