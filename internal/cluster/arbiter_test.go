package cluster

import (
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

func homGrid(t *testing.T, n int) *grid.Grid {
	t.Helper()
	g, err := grid.Homogeneous(n, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// arbitrate runs one Arbiter.Divide round into freshly allocated masks.
func arbitrate(g *grid.Grid, avail []bool, tenants []Tenant) ([]model.CapacityMask, error) {
	masks := make([]model.CapacityMask, len(tenants))
	for i := range masks {
		masks[i] = make(model.CapacityMask, g.NumNodes())
	}
	var ab Arbiter
	if err := ab.Divide(g, avail, tenants, masks); err != nil {
		return nil, err
	}
	return masks, nil
}

func TestArbitrateDisjointAndComplete(t *testing.T) {
	g := homGrid(t, 8)
	masks, err := arbitrate(g, nil, []Tenant{{Weight: 1}, {Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, 8)
	total := 0
	for _, m := range masks {
		for n, ok := range m {
			if ok {
				seen[n]++
				total++
			}
		}
	}
	if total != 8 {
		t.Fatalf("assigned %d of 8 nodes", total)
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d assigned %d times (leases must be disjoint when jobs fit)", n, c)
		}
	}
	if masks[0].Count() != 4 || masks[1].Count() != 4 {
		t.Fatalf("equal weights should split 8 nodes 4/4, got %d/%d", masks[0].Count(), masks[1].Count())
	}
}

func TestArbitrateWeights(t *testing.T) {
	g := homGrid(t, 9)
	masks, err := arbitrate(g, nil, []Tenant{{Weight: 2}, {Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if masks[0].Count() != 6 || masks[1].Count() != 3 {
		t.Fatalf("2:1 weights over 9 nodes should split 6/3, got %d/%d", masks[0].Count(), masks[1].Count())
	}
}

func TestArbitrateFloors(t *testing.T) {
	g := homGrid(t, 6)
	masks, err := arbitrate(g, nil, []Tenant{{Weight: 100}, {Weight: 1, Floor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if masks[1].Count() < 2 {
		t.Fatalf("floor of 2 not honoured: tenant 1 got %d nodes", masks[1].Count())
	}
}

func TestArbitrateOversubscribed(t *testing.T) {
	g := homGrid(t, 2)
	masks, err := arbitrate(g, nil, []Tenant{{}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range masks {
		if m.Count() < 1 {
			t.Fatalf("tenant %d got no nodes under over-subscription", i)
		}
	}
	// 3 single-node floors over 2 nodes: subscription spread 2/1.
	subs := make([]int, 2)
	for _, m := range masks {
		for n, ok := range m {
			if ok {
				subs[n]++
			}
		}
	}
	if subs[0]+subs[1] != 3 || subs[0] > 2 || subs[1] > 2 {
		t.Fatalf("expected floors spread over least-subscribed nodes, got %v", subs)
	}
}

func TestArbitrateFloorExceedsAvail(t *testing.T) {
	g := homGrid(t, 3)
	if _, err := arbitrate(g, nil, []Tenant{{Floor: 4}}); err == nil {
		t.Fatal("floor above the grid must error, not panic or truncate")
	}
	avail := []bool{true, false, false}
	if _, err := arbitrate(g, avail, []Tenant{{Floor: 2}}); err == nil {
		t.Fatal("floor above the available nodes must error")
	}
}

func TestArbitratePinned(t *testing.T) {
	g := homGrid(t, 4)
	pin := make(model.CapacityMask, 4)
	pin[0], pin[1] = true, true
	masks, err := arbitrate(g, nil, []Tenant{{Pin: pin}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !masks[0][0] || !masks[0][1] || masks[0].Count() != 2 {
		t.Fatalf("pinned lease not copied verbatim: %s", masks[0])
	}
	if masks[1][0] || masks[1][1] || masks[1].Count() != 2 {
		t.Fatalf("free tenant must get exactly the unpinned nodes, got %s", masks[1])
	}
}

func TestArbitrateAvailMask(t *testing.T) {
	g := homGrid(t, 4)
	avail := []bool{true, true, false, true}
	masks, err := arbitrate(g, avail, []Tenant{{}})
	if err != nil {
		t.Fatal(err)
	}
	if masks[0][2] {
		t.Fatal("an unavailable node must never be leased")
	}
	if masks[0].Count() != 3 {
		t.Fatalf("expected the 3 available nodes, got %d", masks[0].Count())
	}
}
