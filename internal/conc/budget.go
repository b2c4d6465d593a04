package conc

import "sync"

// WorkerBudget splits one total worker count among concurrent live
// tenants by weight — the live runtime's counterpart of the simulated
// cluster's capacity arbiter. Each concurrent pipeline run takes a
// Lease; Cap answers "how many workers may this tenant use right now"
// under largest-remainder apportionment of the total over the live
// leases (every lease gets at least one). Leases joining and leaving
// re-divide the budget implicitly: Cap is computed against the current
// lease set on every call, so the per-tenant adaptive controllers pick
// up the new split at their next decision tick.
type WorkerBudget struct {
	mu     sync.Mutex
	total  int
	leases []*BudgetLease
}

// NewWorkerBudget returns a budget of total workers (minimum 1).
func NewWorkerBudget(total int) *WorkerBudget {
	if total < 1 {
		total = 1
	}
	return &WorkerBudget{total: total}
}

// Total returns the budget's worker count.
func (b *WorkerBudget) Total() int { return b.total }

// BudgetLease is one tenant's claim on a WorkerBudget.
type BudgetLease struct {
	b      *WorkerBudget
	weight float64
}

// Lease joins the budget with the given fairness weight (≤0 means 1).
// Release it when the tenant's run ends.
func (b *WorkerBudget) Lease(weight float64) *BudgetLease {
	if weight <= 0 {
		weight = 1
	}
	l := &BudgetLease{b: b, weight: weight}
	b.mu.Lock()
	b.leases = append(b.leases, l)
	b.mu.Unlock()
	return l
}

// Release returns the lease's share to the pool. Releasing twice is a
// no-op.
func (l *BudgetLease) Release() {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, x := range b.leases {
		if x == l {
			b.leases = append(b.leases[:i], b.leases[i+1:]...)
			return
		}
	}
}

// Cap returns the lease's current worker allowance: its weighted
// largest-remainder share of the total, at least 1. A released or
// sole lease gets the whole budget.
func (l *BudgetLease) Cap() int {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.leases)
	if n <= 1 {
		return b.total
	}
	weightSum := 0.0
	for _, x := range b.leases {
		weightSum += x.weight
	}
	// Floor of one worker per lease; the remainder apportioned by
	// weight, leftovers to the largest fractional parts (earlier lease
	// on ties).
	extra := b.total - n
	if extra < 0 {
		extra = 0
	}
	caps := make([]int, n)
	fracs := make([]float64, n)
	assigned := 0
	self := -1
	for i, x := range b.leases {
		share := float64(extra) * x.weight / weightSum
		w := int(share)
		caps[i] = 1 + w
		fracs[i] = share - float64(w)
		assigned += w
		if x == l {
			self = i
		}
	}
	for assigned < extra {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		caps[best]++
		fracs[best] = -1
		assigned++
	}
	if self < 0 {
		return b.total // released mid-call: no longer constrained
	}
	return caps[self]
}
