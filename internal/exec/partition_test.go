package exec

import (
	"strings"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

func TestPlanPartitionsBlocks(t *testing.T) {
	g, err := grid.Homogeneous(10, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanPartitions(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Parts != 3 {
		t.Fatalf("Parts=%d, want 3", plan.Parts)
	}
	sizes := make([]int, 3)
	prev := 0
	for n, p := range plan.Assign {
		if p < prev {
			t.Fatalf("assignment not contiguous at node %d: %v", n, plan.Assign)
		}
		prev = p
		sizes[p]++
	}
	// 10 nodes over 3 blocks: the first gets the extra node.
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("block sizes %v, want [4 3 3]", sizes)
	}
	if plan.Lookahead != grid.LANLink.Latency {
		t.Fatalf("lookahead %v, want LAN latency %v", plan.Lookahead, grid.LANLink.Latency)
	}
	if plan.Assign[0] != 0 || plan.Assign[9] != 2 {
		t.Fatalf("partition of endpoints: %d, %d", plan.Assign[0], plan.Assign[9])
	}
}

func TestPlanPartitionsErrors(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanPartitions(g, 0); err == nil {
		t.Fatal("0 partitions must error")
	}
	if _, err := PlanPartitions(g, 5); err == nil {
		t.Fatal("more partitions than nodes must error")
	}
	// One partition per node is the legal extreme.
	plan, err := PlanPartitions(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for n, p := range plan.Assign {
		if p != n {
			t.Fatalf("1-node blocks: Assign=%v", plan.Assign)
		}
	}
}

func TestPlanByMasksSeams(t *testing.T) {
	// Two sites, LAN inside, WAN between: partitioning along the site
	// seam yields the WAN latency as lookahead; splitting inside a site
	// collapses it to the LAN latency.
	g, err := grid.MultiSite([]grid.Site{
		{Name: "a", Nodes: 3, Speed: 1},
		{Name: "b", Nodes: 3, Speed: 1},
	}, grid.LANLink, grid.WANLink)
	if err != nil {
		t.Fatal(err)
	}
	mask := func(ns ...int) model.CapacityMask {
		m := make(model.CapacityMask, g.NumNodes())
		for _, n := range ns {
			m[n] = true
		}
		return m
	}

	plan, err := PlanByMasks(g, []model.CapacityMask{mask(0, 1, 2), mask(3, 4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Lookahead != grid.WANLink.Latency {
		t.Fatalf("site-seam lookahead %v, want WAN %v", plan.Lookahead, grid.WANLink.Latency)
	}

	plan, err = PlanByMasks(g, []model.CapacityMask{mask(0, 1), mask(2, 3, 4, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Lookahead != grid.LANLink.Latency {
		t.Fatalf("intra-site seam lookahead %v, want LAN %v", plan.Lookahead, grid.LANLink.Latency)
	}

	// Uncovered nodes stay unassigned and out of the lookahead scan.
	plan, err = PlanByMasks(g, []model.CapacityMask{mask(0, 1), mask(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assign[2] != -1 || plan.Assign[5] != -1 {
		t.Fatalf("uncovered nodes assigned: %v", plan.Assign)
	}
	if !strings.Contains(plan.String(), "2 unassigned") {
		t.Fatalf("summary misses unassigned count: %q", plan.String())
	}
}

func TestPlanByMasksErrors(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	mask := func(ns ...int) model.CapacityMask {
		m := make(model.CapacityMask, 4)
		for _, n := range ns {
			m[n] = true
		}
		return m
	}
	if _, err := PlanByMasks(g, nil); err == nil {
		t.Fatal("no masks must error")
	}
	if _, err := PlanByMasks(g, []model.CapacityMask{mask(0, 1), mask(1, 2)}); err == nil {
		t.Fatal("overlapping masks must error")
	}
	long := make(model.CapacityMask, 6)
	long[5] = true
	if _, err := PlanByMasks(g, []model.CapacityMask{long}); err == nil {
		t.Fatal("out-of-range mask must error")
	}
}
