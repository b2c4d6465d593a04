package sched

import (
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

func twoNodeGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reserve charges the capacity a saturated tenant on m takes.
func reserve(r *Reservations, spec model.PipelineSpec, m model.Mapping, loads []float64) error {
	use, err := r.UseOf(nil, spec, m, loads)
	if err != nil {
		return err
	}
	r.AddUse(use)
	return nil
}

func TestReservationsChargeUtilisation(t *testing.T) {
	g := twoNodeGrid(t)
	spec := model.Balanced(1, 0.5, 0)
	r := NewReservations(g)
	// One stage of 0.5s work on node 0: a saturated tenant runs at
	// 2 items/s and keeps node 0 100% busy.
	if err := reserve(r, spec, model.FromNodes(0), nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Used(0); got < 0.99 {
		t.Fatalf("node 0 reserved %v, want ~1 (saturated tenant)", got)
	}
	if got := r.Used(1); got != 0 {
		t.Fatalf("node 1 reserved %v, want 0", got)
	}
	res := r.ResidualInto(nil, nil)
	if res[0] != 0.99 {
		t.Fatalf("residual load must clamp at the model's 0.99 cap, got %v", res[0])
	}
}

// residualSearch runs one tenant's placement the way cluster.Divider
// does: fold the ledger into the base loads (ResidualInto), search
// under the mask through a scratch (SearchWith), then widen the
// bottleneck under the same residual loads
// (ImproveWithReplicationAvail). It returns the searched mapping
// (cloned out of the scratch) and the improved one with its
// prediction.
func residualSearch(g *grid.Grid, spec model.PipelineSpec, base []float64, avail []bool, r *Reservations) (searched, improved model.Mapping, pred model.Prediction, err error) {
	loads := r.ResidualInto(nil, base)
	sc := NewScratch()
	m, _, err := SearchWith(sc, LocalSearch{Seed: 1}, g, spec, loads, avail)
	if err != nil {
		return model.Mapping{}, model.Mapping{}, model.Prediction{}, err
	}
	searched = m.Clone()
	improved, pred, err = ImproveWithReplicationAvail(g, spec, m, loads, 0, avail)
	return searched, improved, pred, err
}

// TestResidualSearchAvoidsReservedNode: with node 0 fully reserved by
// another tenant, the search must place the new job on node 1, and
// the replication pass must not widen it back onto node 0.
func TestResidualSearchAvoidsReservedNode(t *testing.T) {
	g := twoNodeGrid(t)
	spec := model.Balanced(1, 0.5, 0)
	r := NewReservations(g)
	if err := reserve(r, spec, model.FromNodes(0), nil); err != nil {
		t.Fatal(err)
	}
	m, im, _, err := residualSearch(g, spec, nil, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign[0][0] != 1 {
		t.Fatalf("search placed the job on the saturated node: %s", m)
	}
	if !im.Equal(m) {
		t.Fatalf("replication moved the job onto the saturated node: %s", im)
	}
}

// TestSearchZeroResidualCapacity: every node fully reserved is not an
// error — the model clamps at 0.99 and the search still returns the
// least-bad mapping (the cluster then runs it under proportional
// sharing).
func TestSearchZeroResidualCapacity(t *testing.T) {
	g := twoNodeGrid(t)
	spec := model.Balanced(2, 0.5, 0)
	r := NewReservations(g)
	if err := reserve(r, spec, model.FromNodes(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := reserve(r, spec, model.FromNodes(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	_, m, pred, err := residualSearch(g, spec, nil, nil, r)
	if err != nil {
		t.Fatalf("zero residual capacity must degrade, not fail: %v", err)
	}
	if pred.Throughput <= 0 {
		t.Fatalf("prediction must stay positive under the clamp, got %v", pred.Throughput)
	}
	if err := m.Validate(spec.NumStages(), g.NumNodes()); err != nil {
		t.Fatal(err)
	}
}

// TestSearchAllNodesExcluded: an all-false availability mask (every
// node draining or down) is a clean error on every strategy and at
// every step of the residual sequence, never a panic.
func TestSearchAllNodesExcluded(t *testing.T) {
	g := twoNodeGrid(t)
	spec := model.Balanced(2, 0.5, 0)
	avail := []bool{false, false}
	for _, s := range availStrategies() {
		if _, _, err := s.SearchAvail(g, spec, nil, avail); err == nil {
			t.Fatalf("strategy %s accepted an empty node set", s.Name())
		}
	}
	if _, _, _, err := residualSearch(g, spec, nil, avail, NewReservations(g)); err == nil {
		t.Fatal("the residual search accepted an empty node set")
	}
	if _, _, err := ImproveWithReplicationAvail(g, spec, model.FromNodes(0, 1), nil, 0, avail); err == nil {
		t.Fatal("the replication pass accepted an empty node set")
	}
}
