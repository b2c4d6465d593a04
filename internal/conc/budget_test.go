package conc

import "testing"

func TestBudgetSoleLeaseGetsAll(t *testing.T) {
	b := NewWorkerBudget(8)
	l := b.Lease(1)
	if got := l.Cap(); got != 8 {
		t.Fatalf("sole lease cap=%d, want 8", got)
	}
	l.Release()
	if len(b.leases) != 0 {
		t.Fatalf("leases=%d after release", len(b.leases))
	}
}

func TestBudgetEqualSplit(t *testing.T) {
	b := NewWorkerBudget(8)
	l1, l2 := b.Lease(1), b.Lease(1)
	if l1.Cap() != 4 || l2.Cap() != 4 {
		t.Fatalf("equal weights over 8 workers: %d/%d, want 4/4", l1.Cap(), l2.Cap())
	}
	l2.Release()
	if got := l1.Cap(); got != 8 {
		t.Fatalf("after the peer released, cap=%d, want the whole budget", got)
	}
}

func TestBudgetWeightsAndFloor(t *testing.T) {
	b := NewWorkerBudget(10)
	heavy, light := b.Lease(3), b.Lease(1)
	if heavy.Cap() != 7 || light.Cap() != 3 {
		t.Fatalf("3:1 weights over 10: %d/%d, want 7/3", heavy.Cap(), light.Cap())
	}
	// Caps always sum to the total and never drop below 1 per lease,
	// even when leases outnumber workers.
	tiny := NewWorkerBudget(2)
	leases := []*BudgetLease{tiny.Lease(1), tiny.Lease(1), tiny.Lease(1)}
	for i, l := range leases {
		if l.Cap() < 1 {
			t.Fatalf("lease %d starved: cap=%d", i, l.Cap())
		}
	}
}

func TestBudgetReleaseTwice(t *testing.T) {
	b := NewWorkerBudget(4)
	l := b.Lease(1)
	other := b.Lease(1)
	l.Release()
	l.Release() // must be a no-op
	if got := other.Cap(); got != 4 {
		t.Fatalf("surviving lease cap=%d, want 4", got)
	}
}

// A budget holds at least one worker, and a released lease is no
// longer constrained by the leases still held.
func TestBudgetFloorAndReleasedLease(t *testing.T) {
	if got := NewWorkerBudget(0).Total(); got != 1 {
		t.Fatalf("NewWorkerBudget(0) holds %d workers, want 1", got)
	}
	b := NewWorkerBudget(4)
	l := b.Lease(1)
	b.Lease(1)
	b.Lease(1)
	l.Release()
	if got := l.Cap(); got != 4 {
		t.Fatalf("released lease cap=%d, want the whole budget", got)
	}
}
