package exec

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// PartitionPlan assigns grid nodes to simulation partitions and
// carries the conservative lookahead the partitioned engine needs:
// the minimum network latency of any link crossing a partition
// boundary. Anything one partition does to another must ride such a
// link, so no cross-partition event can land sooner than the
// lookahead — the bound that lets sim.ParallelEngine advance all
// partitions concurrently within a window.
type PartitionPlan struct {
	// Parts is the partition count.
	Parts int
	// Assign maps node ID to partition index; -1 marks a node outside
	// every partition (it must host no work during a partitioned run).
	Assign []int
	// Lookahead is the minimum cross-partition link latency, 0 when
	// nothing crosses a boundary (a single partition, or fully
	// disconnected tenant islands — the caller picks a transfer bound).
	Lookahead float64
}

// String renders a short summary for logs and gridsim.
func (p PartitionPlan) String() string {
	sizes := make([]int, p.Parts)
	unassigned := 0
	for _, pt := range p.Assign {
		if pt < 0 {
			unassigned++
			continue
		}
		sizes[pt]++
	}
	s := fmt.Sprintf("partition plan: %d partitions, lookahead %.3gs, sizes %v", p.Parts, p.Lookahead, sizes)
	if unassigned > 0 {
		s += fmt.Sprintf(", %d unassigned", unassigned)
	}
	return s
}

// PlanPartitions splits the grid's nodes into parts contiguous blocks
// of near-equal size — the node-seam partitioning of a homogeneous
// run. It errors on a non-positive count or one exceeding the node
// count (an empty partition advances no events and only costs barrier
// traffic).
func PlanPartitions(g *grid.Grid, parts int) (PartitionPlan, error) {
	np := g.NumNodes()
	if parts < 1 {
		return PartitionPlan{}, fmt.Errorf("exec: PlanPartitions with %d partitions", parts)
	}
	if parts > np {
		return PartitionPlan{}, fmt.Errorf("exec: %d partitions for %d nodes (at most one partition per node)", parts, np)
	}
	plan := PartitionPlan{Parts: parts, Assign: make([]int, np)}
	for n := 0; n < np; n++ {
		// Block n*parts/np: the first np%parts blocks get the extra node.
		plan.Assign[n] = n * parts / np
	}
	plan.Lookahead = crossLookahead(g, plan.Assign)
	return plan, nil
}

// PlanByMasks partitions along tenant seams: masks[i] is partition
// i's node set (a cluster lease). Masks must be pairwise disjoint;
// nodes covered by no mask stay unassigned (-1) and must host no
// work. The lease boundaries are the natural partition seams of a
// multi-tenant run — tenants only interact through the arbiter, whose
// notifications ride cross-partition links.
func PlanByMasks(g *grid.Grid, masks []model.CapacityMask) (PartitionPlan, error) {
	np := g.NumNodes()
	if len(masks) == 0 {
		return PartitionPlan{}, fmt.Errorf("exec: PlanByMasks with no masks")
	}
	plan := PartitionPlan{Parts: len(masks), Assign: make([]int, np)}
	for n := range plan.Assign {
		plan.Assign[n] = -1
	}
	for i, m := range masks {
		for n, ok := range m {
			if !ok {
				continue
			}
			if n >= np {
				return PartitionPlan{}, fmt.Errorf("exec: mask %d names node %d of a %d-node grid", i, n, np)
			}
			if prev := plan.Assign[n]; prev >= 0 {
				return PartitionPlan{}, fmt.Errorf("exec: node %d leased to partitions %d and %d (masks must be disjoint)", n, prev, i)
			}
			plan.Assign[n] = i
		}
	}
	plan.Lookahead = crossLookahead(g, plan.Assign)
	return plan, nil
}

// crossLookahead returns the minimum latency of a link between
// assigned nodes of different partitions (+Inf collapsed to 0 when no
// pair crosses).
func crossLookahead(g *grid.Grid, assign []int) float64 {
	min := math.Inf(1)
	for a := range assign {
		if assign[a] < 0 {
			continue
		}
		for b := range assign {
			if assign[b] < 0 || assign[a] == assign[b] {
				continue
			}
			if l := g.Link(grid.NodeID(a), grid.NodeID(b)).Latency; l < min {
				min = l
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
