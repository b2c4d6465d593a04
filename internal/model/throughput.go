package model

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
)

// Prediction is the analytic model's estimate for one mapping.
type Prediction struct {
	// Throughput is the predicted steady-state output rate in items/s.
	Throughput float64
	// NodeBusy[n] is the predicted busy time per pipeline item on node
	// n in seconds (already divided by the node's core count).
	NodeBusy []float64
	// BottleneckNode is the node limiting throughput, or -1 when a
	// link is the bottleneck.
	BottleneckNode grid.NodeID
	// LinkBound is the throughput bound imposed by the most loaded
	// link (+Inf when no inter-node traffic).
	LinkBound float64
	// Latency is the predicted one-item traversal time of an empty
	// pipeline: service + transfer along the critical path of the
	// stage graph (for a chain, simply the path), the model's
	// pipeline-fill estimate.
	Latency float64
}

// MaxLoad is the saturation cap on a node's background load: a node
// keeps at least 1 % of its speed, so every rate the model derives
// stays finite.
const MaxLoad = 0.99

// ClampLoad limits a background-load estimate to [0, MaxLoad]. Every
// evaluator of a load vector (both predictors, the searches' effective
// speeds, the reservation ledger, the node sensors' forecasts) reads
// loads through it. NaN passes through.
func ClampLoad(l float64) float64 {
	if l < 0 {
		return 0
	}
	if l > MaxLoad {
		return MaxLoad
	}
	return l
}

// Predict estimates the steady-state throughput of the pipeline under
// the given mapping.
//
// loads[n] is the background-load estimate for node n (from the
// forecaster battery at run time, or time-averaged traces offline); nil
// means all idle. The model is a saturation analysis:
//
//   - each node is a server processing its stages' aggregate per-item
//     work at effective speed; throughput ≤ cores / busy-per-item;
//   - each directed link is a pipe moving the per-item bytes crossing
//     it (one flow per stage-graph edge, so a split charges every
//     branch and a merge's in-edges each carry their own part);
//     throughput ≤ bandwidth / bytes-per-item;
//   - the pipeline rate is the minimum bound — the saturation cut of
//     the stage graph (latency affects fill time, not steady-state
//     rate).
//
// Replicated stages deal items round-robin, so each of k replicas
// receives 1/k of the per-item work and each replica pair link 1/(k·k')
// of the traffic.
func Predict(g *grid.Grid, spec PipelineSpec, m Mapping, loads []float64) (Prediction, error) {
	s := AcquirePredictScratch()
	defer ReleasePredictScratch(s)
	p, err := PredictInto(g, spec, m, loads, s)
	p.CloneBusyInto(nil)
	return p, err
}

// PredictInto is Predict evaluated over a reusable scratch: all
// intermediate buffers (per-node busy times, link-flow accumulators,
// the critical-path table) come from s, so a steady-state caller —
// a search strategy rating thousands of candidates — performs zero
// allocations per evaluation. Predict is PredictInto over a pooled
// scratch, with NodeBusy copied out of it.
//
// The returned Prediction's NodeBusy slice ALIASES the scratch and is
// only valid until the next PredictInto on the same scratch; callers
// that retain predictions across evaluations must copy it (see
// Prediction.CloneBusyInto).
func PredictInto(g *grid.Grid, spec PipelineSpec, m Mapping, loads []float64, s *PredictScratch) (Prediction, error) {
	if err := spec.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := m.Validate(spec.NumStages(), g.NumNodes()); err != nil {
		return Prediction{}, err
	}
	if loads != nil && len(loads) != g.NumNodes() {
		return Prediction{}, fmt.Errorf("model: %d load estimates for %d nodes", len(loads), g.NumNodes())
	}
	loadOf := func(n grid.NodeID) float64 {
		if loads == nil {
			return 0
		}
		return ClampLoad(loads[n])
	}

	// Per-node busy seconds per item. At grain gr, every batch pays
	// the fixed boundary overhead h once, so each item carries h/gr of
	// it on top of its own work — the paper's amortized-overhead term.
	// The unbatched case skips the term entirely, so its predictions
	// stay bit-identical.
	batched := spec.Batched()
	gr := spec.EffGrain()
	busy := s.busyFor(g.NumNodes())
	for i, st := range spec.Stages {
		replicas := m.Assign[i]
		share := 1 / float64(len(replicas))
		work := st.Work
		if batched {
			work += spec.OverheadAt(i) / gr
		}
		for _, n := range replicas {
			node := g.Node(n)
			eff := node.Speed * (1 - loadOf(n))
			busy[n] += share * work / eff
		}
	}

	// Per-directed-link bytes per item. The accumulator is a small
	// linear-probed slice rather than a map: the number of distinct
	// node pairs is bounded by the stage graph's edges times replica
	// fan, and per-pair additions happen in the same program order as
	// the old map accumulation, so the sums are bit-identical.
	s.flows = s.flows[:0]
	addFlow := func(from, to []grid.NodeID, bytes float64) {
		if bytes == 0 {
			return
		}
		share := bytes / float64(len(from)*len(to))
		for _, a := range from {
			for _, b := range to {
				if a != b {
					s.addFlow(a, b, share)
				}
			}
		}
	}
	// Data flows follow the stage graph: source → entry, one flow per
	// edge (a split duplicates its payload onto every out-edge, a
	// merge's in-edges each carry their own part), exit → sink.
	graph := s.graphFor(spec.Topo, spec.Stages)
	exit := len(spec.Stages) - 1 // the structural contract pins entry=0, exit=n-1
	source := []grid.NodeID{spec.Source}
	sink := []grid.NodeID{spec.Sink}
	addFlow(source, m.Assign[0], spec.InBytes)
	for _, ed := range graph.Edges {
		addFlow(m.Assign[ed.From], m.Assign[ed.To], ed.Bytes)
	}
	addFlow(m.Assign[exit], sink, spec.Stages[exit].OutBytes)

	// Bounds.
	tp := math.Inf(1)
	bottleneck := grid.NodeID(-1)
	for n := range busy {
		if busy[n] <= 0 {
			continue
		}
		perCore := busy[n] / float64(g.Node(grid.NodeID(n)).Cores)
		busy[n] = perCore
		if bound := 1 / perCore; bound < tp {
			tp = bound
			bottleneck = grid.NodeID(n)
		}
	}
	// Link bounds. Unbatched, a link saturates at bandwidth/bytes
	// (latency pipelines away). Batched, each transfer is one message
	// per gr items, so every item also carries Latency/gr of the
	// per-message link latency — small batches on a high-latency link
	// are charged for it, which is exactly the amortization a coarser
	// grain trades against batching delay.
	linkBound := math.Inf(1)
	for _, f := range s.flows {
		lk := g.Link(f.a, f.b)
		var bound float64
		if batched {
			bound = 1 / (f.bytes/lk.Bandwidth + lk.Latency/gr)
		} else {
			bound = lk.Bandwidth / f.bytes
		}
		if bound < linkBound {
			linkBound = bound
		}
	}
	if linkBound < tp {
		tp = linkBound
		bottleneck = -1
	}

	// One-item latency through an empty pipeline: the critical
	// (longest) path through the stage graph, with service on the
	// first replica of each stage and transfers along first-replica
	// edges. A merge stage starts when its latest part arrives, so its
	// ready time is the max over in-edges (on a chain, the one in-edge's
	// arrival, so NaN propagates as in a plain sum).
	ready := s.readyFor(len(spec.Stages)) // output-ready time per stage
	for i, st := range spec.Stages {
		n := m.Assign[i][0]
		t := 0.0
		if ins := graph.InEdges(i); len(ins) == 0 {
			if spec.Source != n {
				t += g.Link(spec.Source, n).TransferDuration(spec.InBytes, 0)
			}
		} else {
			for k, ei := range ins {
				ed := graph.Edges[ei]
				prev := m.Assign[ed.From][0]
				arr := ready[ed.From]
				if prev != n {
					arr += g.Link(prev, n).TransferDuration(ed.Bytes, 0)
				}
				if k == 0 || arr > t {
					t = arr
				}
			}
		}
		node := g.Node(n)
		work := st.Work
		if batched {
			work += spec.OverheadAt(i) / gr
		}
		ready[i] = t + work/(node.Speed*(1-loadOf(n)))
	}
	lat := ready[exit]
	if last := m.Assign[exit][0]; last != spec.Sink {
		lat += g.Link(last, spec.Sink).TransferDuration(spec.Stages[exit].OutBytes, 0)
	}

	return Prediction{
		Throughput:     tp,
		NodeBusy:       busy,
		BottleneckNode: bottleneck,
		LinkBound:      linkBound,
		Latency:        lat,
	}, nil
}

// Best evaluates every candidate and returns the index and prediction
// of the highest-throughput mapping. Ties break towards the earlier
// candidate, which makes the choice deterministic. Evaluations run
// through one pooled scratch, so the cost is one retained-busy copy
// per improvement rather than a fresh allocation per candidate.
func Best(g *grid.Grid, spec PipelineSpec, candidates []Mapping, loads []float64) (int, Prediction, error) {
	if len(candidates) == 0 {
		return -1, Prediction{}, fmt.Errorf("model: no candidate mappings")
	}
	s := AcquirePredictScratch()
	defer ReleasePredictScratch(s)
	bestIdx := -1
	var bestPred Prediction
	var bestBusy []float64
	for i, m := range candidates {
		p, err := PredictInto(g, spec, m, loads, s)
		if err != nil {
			return -1, Prediction{}, fmt.Errorf("candidate %d (%s): %w", i, m, err)
		}
		if bestIdx < 0 || p.Throughput > bestPred.Throughput {
			bestIdx = i
			bestBusy = append(bestBusy[:0], p.NodeBusy...)
			bestPred = p
			bestPred.NodeBusy = bestBusy
		}
	}
	return bestIdx, bestPred, nil
}
