// The arbiter divides a grid's nodes among the cluster's active jobs:
// weighted max-min fairness over node capacity (speed × cores), with
// per-job admission floors. It is a pure function of (grid,
// availability, tenants) so every arbitration round is deterministic.
//
// When the active jobs fit the grid (the common case) the leases are
// disjoint: contention between tenants is a scheduling decision, not
// an accident. When the cluster is over-subscribed — more floors than
// nodes, the F13 over-admission scenario — floors are still honoured
// by placing jobs on the least-subscribed nodes, and the executors'
// proportional capacity sharing (exec.NodeShares) models the resulting
// collapse.
package cluster

import (
	"fmt"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// Tenant is one job's claim in an arbitration round.
type Tenant struct {
	// Weight is the fairness weight (≤0 means 1).
	Weight float64
	// Floor is the minimum node count (≤0 means 1).
	Floor int
	// Pin, when non-nil, fixes the tenant's lease: the arbiter copies
	// it verbatim and excludes the pinned nodes from the shared pool —
	// the static-partition baseline of experiment F12.
	Pin model.CapacityMask
}

func (t Tenant) weight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

func (t Tenant) floor() int {
	if t.Floor <= 0 {
		return 1
	}
	return t.Floor
}

// Arbiter is the reusable arbitration context: it owns the pool,
// subscription and assignment buffers one division round needs, so a
// steady-state caller (the incremental Divider) re-divides the grid
// without allocating. The zero value is ready. Not safe for concurrent
// use.
type Arbiter struct {
	pinned   []bool
	pool     []int
	subs     []int
	assigned []float64
}

// Divide assigns every available node to the tenants under weighted
// max-min fairness, filling the caller-owned masks (one per tenant,
// each covering the whole grid) in place. avail[n] false excludes node
// n (churned out or reserved); nil admits every node. It errors when
// any tenant's floor exceeds the available node count — admission
// control is expected to have held such a job back. Divide is
// Arbitrate over reused storage: same inputs, bit-identical masks.
func (ab *Arbiter) Divide(g *grid.Grid, avail []bool, tenants []Tenant, masks []model.CapacityMask) error {
	np := g.NumNodes()
	if len(masks) != len(tenants) {
		return fmt.Errorf("cluster: %d lease masks for %d tenants", len(masks), len(tenants))
	}
	for _, m := range masks {
		if len(m) != np {
			return fmt.Errorf("cluster: lease mask covers %d nodes, grid has %d", len(m), np)
		}
		for n := range m {
			m[n] = false
		}
	}
	if len(tenants) == 0 {
		return nil
	}

	// The shared pool: available nodes not pinned to anyone, in
	// capacity-descending order (ties by ID, so the order is total).
	if cap(ab.pinned) < np {
		ab.pinned = make([]bool, np)
	}
	pinned := ab.pinned[:np]
	for n := range pinned {
		pinned[n] = false
	}
	for ti, t := range tenants {
		if t.Pin == nil {
			continue
		}
		for n := 0; n < np && n < len(t.Pin); n++ {
			if t.Pin[n] {
				masks[ti][n] = true
				pinned[n] = true
			}
		}
	}
	capOf := func(n int) float64 {
		node := g.Node(grid.NodeID(n))
		return node.Speed * float64(node.Cores)
	}
	if cap(ab.pool) < np {
		ab.pool = make([]int, 0, np)
	}
	pool := ab.pool[:0]
	for n := 0; n < np; n++ {
		if (avail == nil || avail[n]) && !pinned[n] {
			pool = append(pool, n)
		}
	}
	ab.pool = pool
	// Insertion sort: the key (capacity desc, ID asc) is a strict total
	// order over distinct node IDs, so the permutation matches the
	// sort.SliceStable call this replaced exactly.
	for i := 1; i < len(pool); i++ {
		for j := i; j > 0; j-- {
			ca, cb := capOf(pool[j]), capOf(pool[j-1])
			if ca < cb || (ca == cb && pool[j] > pool[j-1]) {
				break
			}
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
	}

	// Per-node tenant count (for oversubscribed floors) and per-tenant
	// assigned capacity (the max-min objective).
	if cap(ab.subs) < np {
		ab.subs = make([]int, np)
	}
	subs := ab.subs[:np]
	for n := range subs {
		subs[n] = 0
	}
	if cap(ab.assigned) < len(tenants) {
		ab.assigned = make([]float64, len(tenants))
	}
	assigned := ab.assigned[:len(tenants)]
	for ti := range assigned {
		assigned[ti] = 0
	}
	give := func(ti, n int) {
		masks[ti][n] = true
		subs[n]++
		assigned[ti] += capOf(n)
	}

	// Floor pass, tenants in order: each takes its floor from the
	// least-subscribed nodes (fresh nodes first, then the highest-
	// capacity ones), so floors stay disjoint while nodes last and
	// overlap gracefully when they do not.
	for ti, t := range tenants {
		if t.Pin != nil {
			continue
		}
		if t.floor() > len(pool) {
			return fmt.Errorf("cluster: tenant %d floor of %d nodes exceeds the %d available", ti, t.floor(), len(pool))
		}
		for masks[ti].Count() < t.floor() {
			best := -1
			for _, n := range pool {
				if masks[ti][n] {
					continue
				}
				if best < 0 || subs[n] < subs[best] {
					best = n
				}
			}
			give(ti, best)
		}
	}

	// Spread pass: every still-free node goes to the most deprived
	// tenant — the one with the lowest assigned capacity per unit
	// weight (ties to the earlier tenant). Pinned tenants do not grow.
	for _, n := range pool {
		if subs[n] > 0 {
			continue
		}
		best := -1
		var bestShare float64
		for ti, t := range tenants {
			if t.Pin != nil {
				continue
			}
			share := assigned[ti] / t.weight()
			if best < 0 || share < bestShare {
				best, bestShare = ti, share
			}
		}
		if best < 0 {
			break // every tenant is pinned
		}
		give(best, n)
	}
	return nil
}
