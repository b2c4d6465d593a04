package cluster

import (
	"testing"

	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
)

// A steady-state arbitration round — three tenants whose leases, loads
// and upstream reservations did not change — replays every per-tenant
// search from the divider's memo and allocates nothing: the cluster's
// per-tick cost when nothing moved.
func TestDividerRoundZeroAlloc(t *testing.T) {
	d := NewDivider(homGrid(t, 8), 0)
	tenants := make([]DividerTenant, 3)
	for i := range tenants {
		tenants[i] = DividerTenant{
			ID:       i,
			Tenant:   Tenant{Weight: 1, Floor: 1},
			Spec:     model.Balanced(4, 0.1, 1e5),
			Searcher: sched.LocalSearch{Seed: rng.SeedFor(42, uint64(i))},
		}
	}
	out := make([]Placement, len(tenants))
	round := func() {
		if err := d.Round(nil, tenants, nil, out); err != nil {
			t.Fatal(err)
		}
	}
	round() // populates the memo
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("steady-state arbitration round allocates %v, want 0", a)
	}
	if st := d.Stats(); st.Searches > len(tenants) {
		t.Fatalf("steady rounds re-searched: %d searches for %d tenants", st.Searches, len(tenants))
	}
}
