// Multi-tenant contention: NodeShares models proportional capacity
// sharing when several executors (one per cluster job) run on the same
// grid in one virtual-time engine.
//
// Each executor still gates its own concurrency at a node's core count
// (busy < Cores), so a single-tenant node behaves exactly as before.
// When tenants overlap, the node's cores are shared processor-style:
// with k in-service tasks cluster-wide on a C-core node, every task
// progresses at min(1, C/k) of the node's effective speed. A share
// change mid-service rescales every in-service task on the node — the
// work done so far under the old share is banked (grid.Node.WorkIn,
// the same quantised integral ServiceDuration uses) and the remaining
// work is rescheduled under the new share.
//
// Single-job runs never construct a NodeShares: every branch in the
// executor hot path is guarded by e.share != nil, so the one-tenant
// event sequence stays bit-identical to the pre-cluster executor
// (pinned by the F1–F11 goldens and golden_test.go).
package exec

import (
	"fmt"
	"slices"

	"gridpipe/internal/grid"
)

// NodeShares is the shared contention ledger of one cluster: per node,
// the number of in-service tasks across every attached executor and
// the servers those tasks run on. It holds nothing for an executor
// with no task in service, so its cost follows the tenants running
// now, not the executors ever attached.
type NodeShares struct {
	g     *grid.Grid
	count []int
	// serving[n] lists, in executor attach order, the node-n server of
	// every executor that has a task in service there. beginService and
	// endService maintain it on a server's 0↔1 in-service transitions.
	serving  [][]*nodeServer
	attached int
}

// NewNodeShares returns an empty ledger for the grid. Pass it as
// Options.Share to every executor multiplexed onto the grid; executors
// attach themselves at construction, in New order (which fixes the
// deterministic rescale order).
func NewNodeShares(g *grid.Grid) *NodeShares {
	np := g.NumNodes()
	return &NodeShares{g: g, count: make([]int, np), serving: make([][]*nodeServer, np)}
}

// attach numbers an executor in attach order; called by New when
// Options.Share is set.
func (sh *NodeShares) attach(e *Executor) error {
	if e.g != sh.g {
		return fmt.Errorf("exec: NodeShares built for a different grid")
	}
	e.shareSeq = sh.attached
	sh.attached++
	return nil
}

// InService returns the cluster-wide in-service task count on node n.
func (sh *NodeShares) InService(n grid.NodeID) int { return sh.count[n] }

// Serving returns the executors with a task in service on node n, in
// attach order (a fresh slice; for diagnostics and tests).
func (sh *NodeShares) Serving(n grid.NodeID) []*Executor {
	out := make([]*Executor, len(sh.serving[n]))
	for i, s := range sh.serving[n] {
		out[i] = s.e
	}
	return out
}

// Mult returns the current capacity share of each in-service task on
// node n: min(1, Cores/k).
func (sh *NodeShares) Mult(n grid.NodeID) float64 {
	c := sh.g.Node(n).Cores
	if sh.count[n] <= c {
		return 1
	}
	return float64(c) / float64(sh.count[n])
}

// beginService accounts one task about to enter service on server s at
// time now, rescaling the tasks already in service on the node if
// their share shrinks, and returns the share the new task starts under.
func (sh *NodeShares) beginService(s *nodeServer, now float64) float64 {
	n := s.node.ID
	if len(s.inService) == 0 {
		i, _ := slices.BinarySearchFunc(sh.serving[n], s.e.shareSeq, func(x *nodeServer, seq int) int {
			return x.e.shareSeq - seq
		})
		sh.serving[n] = slices.Insert(sh.serving[n], i, s)
	}
	sh.count[n]++
	if sh.count[n] > s.node.Cores {
		sh.rescale(n, now)
	}
	return sh.Mult(n)
}

// endService accounts one task that has left service on server s at
// time now, rescaling the remaining tasks on the node if their share
// grows.
func (sh *NodeShares) endService(s *nodeServer, now float64) {
	n := s.node.ID
	if len(s.inService) == 0 {
		i := slices.Index(sh.serving[n], s)
		sh.serving[n] = slices.Delete(sh.serving[n], i, i+1)
	}
	over := sh.count[n] > s.node.Cores
	sh.count[n]--
	if over {
		sh.rescale(n, now)
	}
}

// rescale re-banks and reschedules every in-service task on node n
// under the node's current share. Iteration order — executors in
// attach order, tasks in in-service slice order — is deterministic,
// so the rescheduled event sequence is reproducible.
func (sh *NodeShares) rescale(n grid.NodeID, now float64) {
	node := sh.g.Node(n)
	mult := sh.Mult(n)
	for _, ns := range sh.serving[n] {
		for _, t := range ns.inService {
			if t.mult == mult {
				continue
			}
			done := t.mult * node.WorkIn(t.lastT, now-t.lastT)
			t.rem -= done
			if t.rem < 0 {
				t.rem = 0
			}
			t.lastT = now
			t.mult = mult
			t.completion.Cancel()
			dur := node.ServiceDuration(t.rem/mult, now)
			t.completion = ns.e.eng.ScheduleArg(dur, ns.finishFn, t)
		}
	}
}
