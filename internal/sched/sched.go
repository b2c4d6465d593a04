// Package sched implements mapping search: given a pipeline spec, a
// grid, and per-node load estimates, find a stage→node mapping with
// high predicted throughput under the analytic model.
//
// Specs may carry an arbitrary stage graph (internal/topo): every
// strategy searches over the graph's stages, and the predictions it
// optimises account for per-edge traffic (splits charge every branch,
// merges join), so fan-out/fan-in pipelines are first-class citizens
// of the search space.
//
// Four strategies with different cost/quality trade-offs are provided
// (compared head-to-head in experiment T4):
//
//   - Exhaustive: every unreplicated mapping; exact but exponential.
//   - ContiguousDP: optimal contiguous partition of the stage chain
//     onto the node sequence (chains-on-chains partitioning by dynamic
//     programming); polynomial, communication-light by construction.
//   - Greedy: LPT-style list scheduling of stages onto nodes.
//   - LocalSearch: hill-climbing over single-stage moves from a greedy
//     start, with random restarts.
package sched

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

// Searcher is a mapping-search strategy.
type Searcher interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Search returns a mapping for spec on g and its predicted
	// performance. loads[n] estimates background load per node (nil
	// means idle).
	Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error)
}

// AvailSearcher is a strategy that can restrict its search to a subset
// of available nodes — the fault-aware variant the adaptive controller
// uses under node churn. avail[n] false excludes node n from every
// candidate mapping; nil means all nodes are available. Every built-in
// strategy implements it.
type AvailSearcher interface {
	Searcher
	SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error)
}

// SearchAvailable dispatches a search with an availability mask. A nil
// or all-true mask falls back to the plain search. A mask that
// actually excludes nodes requires the strategy to implement
// AvailSearcher (all built-ins do): silently ignoring the exclusion
// would let a "fault-aware" remap re-select a crashed node, so that
// case errors instead.
func SearchAvailable(s Searcher, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	excludes := false
	for _, ok := range avail {
		if !ok {
			excludes = true
			break
		}
	}
	if excludes {
		as, ok := s.(AvailSearcher)
		if !ok {
			return model.Mapping{}, model.Prediction{}, fmt.Errorf(
				"sched: strategy %q cannot exclude unavailable nodes (does not implement AvailSearcher)", s.Name())
		}
		return as.SearchAvail(g, spec, loads, avail)
	}
	return s.Search(g, spec, loads)
}

// checkAvail validates a mask against the grid: it must cover every
// node and admit at least one (nil admits all).
func checkAvail(g *grid.Grid, avail []bool) error {
	if avail == nil {
		return nil
	}
	if len(avail) != g.NumNodes() {
		return errMaskLen(len(avail), g.NumNodes())
	}
	for _, ok := range avail {
		if ok {
			return nil
		}
	}
	return errNoNodes()
}

// usable reports whether node n may host stages under the mask.
func usable(avail []bool, n int) bool {
	return avail == nil || avail[n]
}

// Exhaustive walks all np^ns unreplicated mappings with a
// branch-and-bound cut (bb.go): partial assignments carry the
// bottleneck-stage lower bound down the tree and subtrees that cannot
// strictly beat the incumbent are skipped without evaluation. The
// result — mapping and prediction — is bit-identical to rating every
// candidate; only the work changes. It remains the ground truth the
// other strategies are judged against, and exponential in the worst
// case.
type Exhaustive struct {
	// Counters, when non-nil, accumulates candidate/evaluation totals
	// across searches — the pruning-ratio telemetry the benchmarks
	// report. Nil skips the accounting.
	Counters *SearchCounters
}

// Name implements Searcher.
func (Exhaustive) Name() string { return "exhaustive" }

// Search implements Searcher.
func (s Exhaustive) Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error) {
	return s.SearchAvail(g, spec, loads, nil)
}

// SearchAvail implements AvailSearcher: enumeration runs over the
// available nodes only.
func (s Exhaustive) SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	return searchPooled(s, g, spec, loads, avail)
}

// ContiguousDP solves the chains-on-chains partitioning problem: split
// the stage chain into at most np contiguous groups and place group k
// on node k (nodes in ID order), minimising the bottleneck per-item
// busy time max_k (Σ work in group k) / effective-speed(node k).
//
// Contiguity means only adjacent-stage traffic ever crosses a link, the
// same structural restriction the era's mapping tables used. The DP is
// exact within that restriction but ignores link bandwidth (checked
// against Exhaustive in T4). On a non-linear stage graph "contiguous"
// means contiguous in the topological stage order — still a valid
// (work-balancing) heuristic, though edge-adjacency is then only
// approximate.
type ContiguousDP struct{}

// Name implements Searcher.
func (ContiguousDP) Name() string { return "contiguous-dp" }

// Search implements Searcher.
func (s ContiguousDP) Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error) {
	return s.SearchAvail(g, spec, loads, nil)
}

// SearchAvail implements AvailSearcher: unavailable nodes never host a
// group (they are "skipped over" in the node sequence).
func (s ContiguousDP) SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	return searchPooled(s, g, spec, loads, avail)
}

// searchScratch implements scratchSearcher. The DP runs over flattened
// scratch tables with two exact incumbent cuts in the inner loop:
//
//   - the last group's cost (prefix[i]-prefix[k])/eff is nonincreasing
//     in its start k (prefix sums of nonnegative work are monotone
//     under IEEE rounding), so a binary search finds the first k whose
//     group could beat the incumbent and everything before it is
//     skipped;
//   - dp[k][j-1] is nondecreasing in k (a longer stage prefix over the
//     same nodes can only cost more), so once it reaches the incumbent
//     the remaining starts cannot win and the loop breaks.
//
// Both cuts only skip starts whose candidate cost is provably ≥ the
// incumbent under the same FP comparisons the plain loop performs, and
// the surviving iteration order is unchanged (ascending k, strict <),
// so dp values, cut choices and the reconstructed mapping are
// bit-identical to the unpruned DP.
func (ContiguousDP) searchScratch(sc *Scratch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	ns, np := spec.NumStages(), g.NumNodes()
	if ns == 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: empty pipeline")
	}
	if _, err := sc.idsFor(g, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	eff := sc.effFor(g, loads)

	// prefix[i] = total work of stages [0, i).
	if cap(sc.prefix) < ns+1 {
		sc.prefix = make([]float64, ns+1)
	}
	prefix := sc.prefix[:ns+1]
	prefix[0] = 0
	for i, st := range spec.Stages {
		prefix[i+1] = prefix[i] + st.Work
	}
	groupCost := func(from, to, node int) float64 { // stages [from, to) on node
		return (prefix[to] - prefix[from]) / eff[node]
	}

	const inf = math.MaxFloat64
	// dp[i*(np+1)+j]: minimal bottleneck for stages [0, i) using nodes
	// [0, j); cut holds the start of the last group (-1: node unused).
	cells := (ns + 1) * (np + 1)
	if cap(sc.dp) < cells {
		sc.dp = make([]float64, cells)
		sc.cut = make([]int32, cells)
	}
	dp, cut := sc.dp[:cells], sc.cut[:cells]
	for i := range dp {
		dp[i] = inf
		cut[i] = -1
	}
	stride := np + 1
	dp[0] = 0 // dp[0][0]
	for j := 1; j <= np; j++ {
		dp[j] = 0 // zero stages need zero groups; extra nodes stay idle
		for i := 1; i <= ns; i++ {
			cur, curCut := dp[i*stride+j], cut[i*stride+j]
			// Node j-1 either hosts the last group [k, i) or is unused.
			if prev := dp[i*stride+j-1]; prev < cur {
				cur, curCut = prev, -1 // marker: node j-1 unused
			}
			if usable(avail, j-1) {
				// Binary search the first start whose last-group cost
				// beats the incumbent; earlier starts cannot win.
				lo, hi := 0, i
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if groupCost(mid, i, j-1) < cur {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				for k := lo; k < i; k++ {
					dkj := dp[k*stride+j-1]
					if dkj >= cur {
						break // nondecreasing in k: no later start can win
					}
					c := dkj
					if gc := groupCost(k, i, j-1); gc > c {
						c = gc
					}
					if c < cur {
						cur, curCut = c, int32(k)
					}
				}
			}
			dp[i*stride+j], cut[i*stride+j] = cur, curCut
		}
	}
	if dp[ns*stride+np] == inf {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: DP found no feasible partition")
	}

	// Reconstruct stage→node assignment into the result storage.
	assign := sc.resultRows(ns)
	i, j := ns, np
	for i > 0 {
		k := cut[i*stride+j]
		if k < 0 { // node j-1 unused
			j--
			continue
		}
		for s := int(k); s < i; s++ {
			assign[s] = grid.NodeID(j - 1)
		}
		i, j = int(k), j-1
	}
	m := model.Mapping{Assign: sc.resRows}
	pred, err := model.PredictInto(g, spec, m, loads, sc.ps)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	sc.busyKeep = pred.CloneBusyInto(sc.busyKeep)
	return m, pred, nil
}

// Greedy is LPT-style list scheduling: stages in decreasing work order,
// each placed on the node whose accumulated per-item busy time (after
// placement) is smallest. Fast and mapping-quality is usually within a
// small factor of optimal, but it ignores communication entirely.
type Greedy struct{}

// Name implements Searcher.
func (Greedy) Name() string { return "greedy" }

// Search implements Searcher.
func (s Greedy) Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error) {
	return s.SearchAvail(g, spec, loads, nil)
}

// SearchAvail implements AvailSearcher: unavailable nodes are never
// placement candidates.
func (s Greedy) SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	return searchPooled(s, g, spec, loads, avail)
}

// searchScratch implements scratchSearcher: the list scheduling runs
// over scratch buffers, the same placement math as always.
func (Greedy) searchScratch(sc *Scratch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	ns, np := spec.NumStages(), g.NumNodes()
	if ns == 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: empty pipeline")
	}
	if _, err := sc.idsFor(g, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	eff := sc.effFor(g, loads)

	if cap(sc.order) < ns {
		sc.order = make([]int, ns)
	}
	order := sc.order[:ns]
	for i := range order {
		order[i] = i
	}
	// Insertion sort by decreasing work (ns is small; avoids pulling in
	// sort for a custom key).
	for i := 1; i < ns; i++ {
		for j := i; j > 0 && spec.Stages[order[j]].Work > spec.Stages[order[j-1]].Work; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	if cap(sc.gBusy) < np {
		sc.gBusy = make([]float64, np)
	}
	busy := sc.gBusy[:np]
	for n := range busy {
		busy[n] = 0
	}
	assign := sc.resultRows(ns)
	for _, si := range order {
		best, bestBusy := -1, math.Inf(1)
		for n := 0; n < np; n++ {
			if !usable(avail, n) {
				continue
			}
			b := busy[n] + spec.Stages[si].Work/eff[n]/float64(g.Node(grid.NodeID(n)).Cores)
			if b < bestBusy {
				best, bestBusy = n, b
			}
		}
		busy[best] = bestBusy
		assign[si] = grid.NodeID(best)
	}
	m := model.Mapping{Assign: sc.resRows}
	pred, err := model.PredictInto(g, spec, m, loads, sc.ps)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	sc.busyKeep = pred.CloneBusyInto(sc.busyKeep)
	return m, pred, nil
}

// LocalSearch hill-climbs over single-stage reassignments, starting
// from the greedy solution plus random restarts. It optimises the full
// analytic prediction (including link bounds), unlike Greedy and the
// DP.
type LocalSearch struct {
	// Seed makes restarts reproducible.
	Seed uint64
	// Restarts is the number of random restarts (default 3).
	Restarts int
	// MaxIters bounds the climb length per start (default 200).
	MaxIters int
}

// Name implements Searcher.
func (LocalSearch) Name() string { return "local-search" }

// Search implements Searcher.
func (l LocalSearch) Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error) {
	return l.SearchAvail(g, spec, loads, nil)
}

// SearchAvail implements AvailSearcher: the climb's move set and the
// random restarts draw from the available nodes only.
func (l LocalSearch) SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	return searchPooled(l, g, spec, loads, avail)
}

// searchScratch implements scratchSearcher: the climb mutates one
// scratch-owned mapping in place and the best start's result is kept
// in the scratch's result storage. The walk — greedy start, per-move
// comparisons, restart draws — is that of a climb rating every
// candidate, so the chosen mapping is identical; the four climbs share
// one table of the assignments already rated (spec, loads and mask are
// fixed for the search), so the model rates each of them once.
func (l LocalSearch) searchScratch(sc *Scratch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	ns := spec.NumStages()
	if ns == 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: empty pipeline")
	}
	if _, err := sc.idsFor(g, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	restarts := l.Restarts
	if restarts <= 0 {
		restarts = 3
	}
	maxIters := l.MaxIters
	if maxIters <= 0 {
		maxIters = 200
	}
	r := rng.New(l.Seed)

	// Greedy start (its result lands in the result storage; copy it
	// into the climb buffer before the climb overwrites anything).
	if _, _, err := (Greedy{}).searchScratch(sc, g, spec, loads, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	sc.curBacking, sc.curRows = sizeRows(sc.curBacking, sc.curRows, ns)
	copy(sc.curBacking, sc.resBacking)
	sc.rated.reset(ns)
	bestP, err := sc.climb(g, spec, loads, avail, maxIters)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	copy(sc.resBacking, sc.curBacking)
	sc.busyKeep = bestP.CloneBusyInto(sc.busyKeep)
	ids := sc.ids
	for rs := 0; rs < restarts; rs++ {
		for i := range sc.curBacking {
			sc.curBacking[i] = ids[r.Intn(len(ids))]
		}
		p, err := sc.climb(g, spec, loads, avail, maxIters)
		if err != nil {
			return model.Mapping{}, model.Prediction{}, err
		}
		if p.Throughput > bestP.Throughput {
			copy(sc.resBacking, sc.curBacking)
			sc.busyKeep = p.CloneBusyInto(sc.busyKeep)
			bestP = p
		}
	}
	return model.Mapping{Assign: sc.resRows}, bestP, nil
}

// climb hill-climbs sc.curRows in place over single-stage moves,
// returning the final prediction (NodeBusy detached into the scratch's
// secondary keep buffer, so it survives later evaluations). A move
// this search has rated before (sc.rated) is decided on the remembered
// throughput: one that does not beat the incumbent is skipped without
// evaluation, one that does is evaluated again for its full
// Prediction. The model is a pure function of the assignment within a
// search, so every comparison reads the float it always read.
func (sc *Scratch) climb(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool, maxIters int) (model.Prediction, error) {
	ns, np := spec.NumStages(), g.NumNodes()
	cur := model.Mapping{Assign: sc.curRows}
	pred, err := model.PredictInto(g, spec, cur, loads, sc.ps)
	if err != nil {
		return model.Prediction{}, err
	}
	sc.busyKeep2 = pred.CloneBusyInto(sc.busyKeep2)
	if slot, _, seen := sc.rated.lookup(sc.curBacking); !seen {
		sc.rated.store(slot, sc.curBacking, pred.Throughput)
	}
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		for si := 0; si < ns; si++ {
			orig := sc.curBacking[si]
			for n := 0; n < np; n++ {
				if grid.NodeID(n) == orig || !usable(avail, n) {
					continue
				}
				sc.curBacking[si] = grid.NodeID(n)
				slot, tp, seen := sc.rated.lookup(sc.curBacking)
				if seen && !(tp > pred.Throughput*(1+1e-12)) {
					sc.curBacking[si] = orig
					continue
				}
				p, err := model.PredictInto(g, spec, cur, loads, sc.ps)
				if err != nil {
					return model.Prediction{}, err
				}
				if !seen {
					sc.rated.store(slot, sc.curBacking, p.Throughput)
				}
				if p.Throughput > pred.Throughput*(1+1e-12) {
					sc.busyKeep2 = p.CloneBusyInto(sc.busyKeep2)
					pred = p
					orig = grid.NodeID(n)
					improved = true
				} else {
					sc.curBacking[si] = orig
				}
			}
			sc.curBacking[si] = orig
		}
		if !improved {
			break
		}
	}
	return pred, nil
}

// ImproveWithReplication greedily replicates the predicted bottleneck
// stage onto additional nodes while the analytic prediction improves.
// Only stages marked Replicable are touched; maxReplicas bounds the fan
// width (0 means the grid size). This is the planning primitive behind
// the adaptivity engine's replicate action and experiment F4.
func ImproveWithReplication(g *grid.Grid, spec model.PipelineSpec, m model.Mapping, loads []float64, maxReplicas int) (model.Mapping, model.Prediction, error) {
	return ImproveWithReplicationAvail(g, spec, m, loads, maxReplicas, nil)
}

// ImproveWithReplicationAvail is ImproveWithReplication restricted to
// the available nodes: replicas are never placed on Down or Draining
// nodes. A nil mask allows every node.
func ImproveWithReplicationAvail(g *grid.Grid, spec model.PipelineSpec, m model.Mapping, loads []float64, maxReplicas int, avail []bool) (model.Mapping, model.Prediction, error) {
	if err := checkAvail(g, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	if maxReplicas <= 0 {
		maxReplicas = g.NumNodes()
	}
	// Evaluations run through one pooled scratch; retained predictions
	// hop between two keep buffers (the current incumbent's busy vector
	// and the round's best candidate) so nothing aliases the scratch
	// when it is released. A trial is rated in place — cur's rows with
	// the replicated stage's row swapped for one reused row — and only
	// an accepted step is cloned.
	ps := model.AcquirePredictScratch()
	defer model.ReleasePredictScratch(ps)
	var keepCur, keepCand []float64
	var trialRows [][]grid.NodeID
	var trialRow []grid.NodeID
	cur := m.Clone()
	pred, err := model.PredictInto(g, spec, cur, loads, ps)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	keepCur = pred.CloneBusyInto(keepCur)
	detachPred := func(p model.Prediction) model.Prediction {
		p.NodeBusy = append([]float64(nil), p.NodeBusy...)
		return p
	}
	for {
		// Find the stage on the bottleneck node with the largest work
		// share that is allowed to replicate.
		si := -1
		var worst float64
		for i, st := range spec.Stages {
			if !st.Replicable || len(cur.Assign[i]) >= maxReplicas {
				continue
			}
			share := st.Work / float64(len(cur.Assign[i]))
			if onNode(cur.Assign[i], pred.BottleneckNode) && share > worst {
				si, worst = i, share
			}
		}
		if si < 0 {
			return cur, detachPred(pred), nil
		}
		// Try adding each node not already hosting the stage; keep the
		// best improvement.
		bestP := pred
		bestN := grid.NodeID(-1)
		trialRow = append(append(trialRow[:0], cur.Assign[si]...), -1)
		trialRows = append(trialRows[:0], cur.Assign...)
		trialRows[si] = trialRow
		for n := 0; n < g.NumNodes(); n++ {
			id := grid.NodeID(n)
			if onNode(cur.Assign[si], id) || !usable(avail, n) {
				continue
			}
			trialRow[len(trialRow)-1] = id
			p, err := model.PredictInto(g, spec, model.Mapping{Assign: trialRows}, loads, ps)
			if err != nil {
				return model.Mapping{}, model.Prediction{}, err
			}
			if p.Throughput > bestP.Throughput*(1+1e-9) {
				keepCand = p.CloneBusyInto(keepCand)
				bestP, bestN = p, id
			}
		}
		if bestN < 0 {
			return cur, detachPred(pred), nil
		}
		trialRow[len(trialRow)-1] = bestN
		cur = cur.WithReplicas(si, trialRow...)
		pred = bestP
		keepCur, keepCand = keepCand, keepCur
	}
}

func onNode(nodes []grid.NodeID, id grid.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
