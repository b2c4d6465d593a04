package cluster

// The divider's memo is exact, shown rather than argued: whatever a
// long-lived Divider replays from its memo must be, bit for bit, what
// a Divider with no memory computes from scratch. The property body
// below drives both through random round sequences; FuzzDividerRounds
// wraps the same body. The targeted cases pin the key itself — what
// must hit, and what must not.

import (
	"fmt"
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
)

// samePlacements requires two rounds' outcomes to agree by bit
// pattern: masks, mappings, every Prediction field, and the ledger the
// round left behind.
func samePlacements(t *testing.T, label string, got, want []Placement, gotD, wantD *Divider) {
	t.Helper()
	bits := math.Float64bits
	for i := range want {
		g, w := got[i], want[i]
		for n := range w.Mask {
			if g.Mask[n] != w.Mask[n] {
				t.Fatalf("%s: tenant %d lease %v, want %v", label, i, g.Mask, w.Mask)
			}
		}
		if !g.Mapping.Equal(w.Mapping) {
			t.Fatalf("%s: tenant %d mapping %s, want %s", label, i, g.Mapping, w.Mapping)
		}
		if bits(g.Pred.Throughput) != bits(w.Pred.Throughput) || g.Pred.BottleneckNode != w.Pred.BottleneckNode ||
			bits(g.Pred.LinkBound) != bits(w.Pred.LinkBound) || bits(g.Pred.Latency) != bits(w.Pred.Latency) {
			t.Fatalf("%s: tenant %d prediction %+v, want %+v", label, i, g.Pred, w.Pred)
		}
		if len(g.Pred.NodeBusy) != len(w.Pred.NodeBusy) {
			t.Fatalf("%s: tenant %d NodeBusy covers %d nodes, want %d", label, i, len(g.Pred.NodeBusy), len(w.Pred.NodeBusy))
		}
		for n := range w.Pred.NodeBusy {
			if bits(g.Pred.NodeBusy[n]) != bits(w.Pred.NodeBusy[n]) {
				t.Fatalf("%s: tenant %d NodeBusy[%d] = %v, want %v", label, i, n, g.Pred.NodeBusy[n], w.Pred.NodeBusy[n])
			}
		}
	}
	for n := 0; n < wantD.g.NumNodes(); n++ {
		id := grid.NodeID(n)
		if bits(gotD.resv.Used(id)) != bits(wantD.resv.Used(id)) {
			t.Fatalf("%s: ledger[%d] = %v, want %v", label, n, gotD.resv.Used(id), wantD.resv.Used(id))
		}
	}
}

// dividerRoundsAgree runs one random round sequence — tenants arriving
// and leaving, claims (weights, floors, pins, over-subscription) and
// availability drifting, base vectors nil, all-zero and varying inside
// and outside the leases — through one long-lived Divider and through
// a fresh NewDivider per round, and requires every round to agree. It
// returns the long-lived divider's counters.
func dividerRoundsAgree(t *testing.T, seed uint64, rounds int) DividerStats {
	t.Helper()
	r := rng.New(seed)
	np := 4 + r.Intn(7)
	speeds := make([]float64, np)
	for i := range speeds {
		speeds[i] = 1
		if seed%2 == 1 {
			speeds[i] = 0.5 + 2*r.Float64()
		}
	}
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	maxReplicas := r.Intn(4)

	// The tenant pool: an ID's spec and strategy are fixed for its life
	// (the memo's contract); its claim is not.
	pool := make([]DividerTenant, 6)
	for id := range pool {
		spec := model.Balanced(2+r.Intn(3), 0.05, 1e4+1e5*r.Float64())
		for i := range spec.Stages {
			spec.Stages[i].Work = 0.02 + 0.4*r.Float64()
			spec.Stages[i].Replicable = r.Float64() < 0.7
		}
		var s sched.Searcher = sched.LocalSearch{Seed: rng.SeedFor(seed, uint64(id))}
		switch r.Intn(8) {
		case 0:
			s = sched.Greedy{}
		case 1:
			s = sched.ContiguousDP{}
		case 2:
			s = sched.Exhaustive{}
		}
		pool[id] = DividerTenant{ID: id, Name: spec.Stages[0].Name, Tenant: Tenant{Weight: 1, Floor: 1}, Spec: spec, Searcher: s}
	}
	active := make([]bool, len(pool))
	for id := range active {
		active[id] = r.Float64() < 0.5
	}

	long := NewDivider(g, maxReplicas)
	var avail []bool
	var base []float64
	for round := 0; round < rounds; round++ {
		label := fmt.Sprintf("seed %d round %d", seed, round)
		// Tenants arrive and leave; a leaver's memo slot is released, as
		// the cluster does, about half the time — a slot left behind
		// must be just as safe when the ID comes back.
		if r.Float64() < 0.4 {
			id := r.Intn(len(pool))
			active[id] = !active[id]
			if !active[id] && r.Float64() < 0.5 {
				long.Release(id)
			}
		}
		// Claims drift: weight, floor (large floors over-subscribe the
		// grid, so leases overlap), pins (which may overlap each other
		// and ignore availability).
		if r.Float64() < 0.3 {
			t := &pool[r.Intn(len(pool))].Tenant
			switch r.Intn(4) {
			case 0:
				t.Weight = []float64{0.5, 1, 2, 0}[r.Intn(4)]
			case 1:
				t.Floor = r.Intn(np/2 + 2)
			case 2:
				t.Pin = make(model.CapacityMask, np)
				for k := 1 + r.Intn(3); k > 0; k-- {
					t.Pin[r.Intn(np)] = true
				}
			case 3:
				t.Pin = nil
			}
		}
		if r.Float64() < 0.15 {
			if avail == nil || r.Float64() < 0.3 {
				avail = make([]bool, np)
				for n := range avail {
					avail[n] = true
				}
			} else {
				avail = append([]bool(nil), avail...)
			}
			n := r.Intn(np)
			avail[n] = !avail[n]
		}
		// The base vector: unchanged, nil, all zeros, one node moved
		// (inside some leases, outside others), or redrawn. (A NaN load
		// is pinned by TestDividerMemoKeyIsTheLease instead: a NaN charge
		// reaching a downstream tenant's Greedy start finds no node.)
		switch r.Intn(10) {
		case 0:
			base = nil
		case 1:
			base = make([]float64, np)
		case 2, 3:
			next := make([]float64, np)
			copy(next, base)
			next[r.Intn(np)] = r.Float64()
			base = next
		case 4:
			base = make([]float64, np)
			for n := range base {
				if r.Float64() < 0.5 {
					base[n] = 0.9 * r.Float64()
				}
			}
		}

		var tenants []DividerTenant
		for id, on := range active {
			if on {
				tenants = append(tenants, pool[id])
			}
		}
		got, want := make([]Placement, len(tenants)), make([]Placement, len(tenants))
		fresh := NewDivider(g, maxReplicas)
		gotErr, wantErr := long.Round(avail, tenants, base, got), fresh.Round(avail, tenants, base, want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: long-lived divider says %v, a fresh one %v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			continue // a refused round (floor beyond the pool, empty pin) leaves no placements to compare
		}
		samePlacements(t, label, got, want, long, fresh)
	}
	return long.Stats()
}

func TestDividerMemoIsExact(t *testing.T) {
	var total DividerStats
	for seed := uint64(1); seed <= 40; seed++ {
		st := dividerRoundsAgree(t, seed, 40)
		total.Searches += st.Searches
		total.Cached += st.Cached
	}
	// The property is vacuous unless the memo is actually replaying a
	// good share of the searches it is being checked on.
	if total.Cached*4 < total.Searches {
		t.Fatalf("memo replayed %d of %d tenant searches; the sequences must exercise it", total.Cached, total.Cached+total.Searches)
	}
	t.Logf("%d searched, %d replayed", total.Searches, total.Cached)
}

// FuzzDividerRounds lets the fuzzer pick the sequence: the seed draws
// the grid, the tenants and every round's drift.
func FuzzDividerRounds(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint8) {
		dividerRoundsAgree(t, seed, 1+int(rounds)%48)
	})
}

// pinned returns a lease pinned to the given nodes of an np-node grid.
func pinned(np int, nodes ...int) model.CapacityMask {
	m := make(model.CapacityMask, np)
	for _, n := range nodes {
		m[n] = true
	}
	return m
}

// memoCase is two tenants with fixed (pinned) leases on an 8-node
// grid, a long-lived divider, and a helper that runs a round on it and
// on a fresh divider, checks they agree, and reports which tenants
// were searched rather than replayed.
type memoCase struct {
	t       *testing.T
	g       *grid.Grid
	d       *Divider
	tenants []DividerTenant
}

func newMemoCase(t *testing.T, leaseA, leaseB model.CapacityMask) *memoCase {
	c := &memoCase{t: t, g: homGrid(t, 8)}
	c.d = NewDivider(c.g, 0)
	spec := model.Balanced(3, 0.05, 1e4)
	spec.Stages[1].Work = 0.4
	for i, lease := range []model.CapacityMask{leaseA, leaseB} {
		c.tenants = append(c.tenants, DividerTenant{
			ID: i, Tenant: Tenant{Weight: 1, Floor: 1, Pin: lease}, Spec: spec,
			Searcher: sched.LocalSearch{Seed: rng.SeedFor(9, uint64(i))},
		})
	}
	return c
}

// round returns, per tenant, whether this round searched it, plus the
// placements.
func (c *memoCase) round(label string, base []float64) ([]bool, []Placement) {
	c.t.Helper()
	got, want := make([]Placement, len(c.tenants)), make([]Placement, len(c.tenants))
	searched := make([]bool, len(c.tenants))
	// The counters are per round, not per tenant, so read the memo: a
	// search replaces the stored mapping wholesale, a replay leaves the
	// very same rows.
	before := make([]model.Mapping, len(c.tenants))
	for i, tn := range c.tenants {
		before[i] = c.d.state(tn.ID).mapping
	}
	if err := c.d.Round(nil, c.tenants, base, got); err != nil {
		c.t.Fatalf("%s: %v", label, err)
	}
	fresh := NewDivider(c.g, 0)
	if err := fresh.Round(nil, c.tenants, base, want); err != nil {
		c.t.Fatalf("%s: fresh: %v", label, err)
	}
	samePlacements(c.t, label, got, want, c.d, fresh)
	for i, tn := range c.tenants {
		after := c.d.state(tn.ID).mapping
		searched[i] = before[i].Assign == nil || &before[i].Assign[0] != &after.Assign[0]
	}
	return searched, got
}

func (c *memoCase) expect(label string, base []float64, want ...bool) []Placement {
	c.t.Helper()
	searched, out := c.round(label, base)
	for i := range want {
		if searched[i] != want[i] {
			c.t.Fatalf("%s: tenant %d searched = %v, want %v", label, i, searched[i], want[i])
		}
	}
	return out
}

// A nil base and an all-zero base are the same input to every search:
// the cluster's arrival rounds pass nil and its idle controller ticks
// pass zeros, and alternating them must replay.
func TestDividerMemoNilBaseIsZeros(t *testing.T) {
	c := newMemoCase(t, pinned(8, 0, 1, 2), pinned(8, 4, 5, 6))
	zeros := make([]float64, 8)
	c.expect("populate", nil, true, true)
	before := c.d.Stats()
	c.expect("nil", nil, false, false)
	c.expect("zeros", zeros, false, false)
	c.expect("nil again", nil, false, false)
	if st := c.d.Stats(); st.Searches != before.Searches || st.Cached != before.Cached+6 {
		t.Fatalf("nil → zeros → nil: %d searches and %d replays, want 0 and 6", st.Searches-before.Searches, st.Cached-before.Cached)
	}
}

// A search reads loads only inside its lease: a base load or a ledger
// charge that moves on a node the tenant does not hold replays, the
// same move on a leased node re-searches.
func TestDividerMemoKeyIsTheLease(t *testing.T) {
	t.Run("base", func(t *testing.T) {
		c := newMemoCase(t, pinned(8, 0, 1, 2), pinned(8, 4, 5, 6))
		c.expect("populate", nil, true, true)
		base := make([]float64, 8)
		base[7] = 0.5 // nobody's node
		c.expect("load on an unleased node", base, false, false)
		base = append([]float64(nil), base...)
		base[1] = 0.5 // tenant 0's node
		c.expect("load inside tenant 0's lease", base, true, false)
		base = append([]float64(nil), base...)
		base[5] = math.NaN() // tenant 1's node: a NaN is never trusted
		c.expect("NaN inside tenant 1's lease", base, false, true)
		c.expect("NaN again", base, false, true)
	})
	t.Run("ledger", func(t *testing.T) {
		// Tenant 0's charge moves when the load on its node does.
		// Disjoint leases: tenant 1 never reads it.
		c := newMemoCase(t, pinned(8, 0, 1), pinned(8, 4, 5, 6))
		c.expect("populate", nil, true, true)
		base := make([]float64, 8)
		base[0] = 0.6
		c.expect("upstream charge moved outside the lease", base, true, false)

		// Overlapping leases (an over-subscribed grid): node 1 is in
		// both, so tenant 1's residual there is tenant 0's charge. The
		// base load moves only on node 0, which tenant 1 does not hold —
		// the ledger entry at node 1 (1.0 → 0.67 as tenant 0 slows) is
		// the only part of its key that changes, and it must miss.
		c = newMemoCase(t, pinned(8, 0, 1, 2), pinned(8, 1, 3))
		first := c.expect("populate", nil, true, true)
		predBefore := first[1].Pred
		second := c.expect("upstream charge moved inside the lease", base, true, true)
		if second[1].Pred.Throughput == predBefore.Throughput {
			t.Fatal("the case is vacuous: tenant 1's prediction did not move with tenant 0's charge on their shared node")
		}
	})
}
