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
// share of the total under Apportion, at least 1. A released or sole
// lease gets the whole budget.
func (l *BudgetLease) Cap() int {
	b := l.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.leases) <= 1 {
		return b.total
	}
	weights := make([]float64, len(b.leases))
	self := -1
	for i, x := range b.leases {
		weights[i] = x.weight
		if x == l {
			self = i
		}
	}
	if self < 0 {
		return b.total // released mid-call: no longer constrained
	}
	return Apportion(nil, weights, b.total)[self]
}

// Apportion splits total workers over len(weights) entries: one worker
// each, the rest in proportion to weight by largest remainder, the
// earlier entry winning a tie. Allocating the floor first, rather than
// flooring each proportional share at 1, keeps the sum at exactly
// max(total, len(weights)). Weights must be positive. The result is
// written into dst, which grows only when its capacity is short.
func Apportion(dst []int, weights []float64, total int) []int {
	n := len(weights)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	extra := total - n
	if extra < 0 {
		extra = 0
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	assigned := 0
	for i, w := range weights {
		k := int(float64(extra) * w / sum)
		dst[i] = 1 + k
		assigned += k
	}
	// Leftovers go one each to the largest fractional parts. An entry
	// already topped up no longer reads 1 + its floored share, which
	// takes it out of the running.
	for ; assigned < extra; assigned++ {
		best, bestFrac := 0, -1.0
		for i, w := range weights {
			share := float64(extra) * w / sum
			k := int(share)
			if dst[i] != 1+k {
				continue
			}
			if f := share - float64(k); f > bestFrac {
				best, bestFrac = i, f
			}
		}
		dst[best]++
	}
	return dst
}
