package model

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
)

// LatencyPrediction is the open-system response-time estimate of a
// mapped pipeline under Poisson arrivals.
type LatencyPrediction struct {
	// Mean is the predicted mean per-item traversal time (s).
	Mean float64
	// ServicePart is the no-contention service+transfer floor.
	ServicePart float64
	// WaitPart is the predicted total queueing delay.
	WaitPart float64
	// MaxUtilisation is the highest node utilisation; predictions are
	// returned with an error when any node saturates (ρ >= 1).
	MaxUtilisation float64
}

// PredictLatency estimates the mean per-item latency of the mapped
// pipeline under Poisson arrivals of rate lambda (items/s), using an
// M/G/1 node approximation with the Pollaczek–Khinchine formula:
//
//	Wq(node) = λ_node · E[S²] / (2 (1 − ρ))
//
// where the service moments aggregate every stage visit hosted by the
// node (a replica of a k-way farmed stage receives 1/k of the stream)
// and cv is the coefficient of variation of per-item service demand
// (0 = deterministic service → M/D/1, 1 = exponential → M/M/1).
//
// Approximations, in the spirit of the throughput model:
//   - nodes are independent M/G/1 queues (Jackson-style decomposition);
//   - a c-core node is approximated as a single server of c× speed —
//     exact for c=1, optimistic for small ρ on c>1;
//   - transfer times enter as pure delay (links are far from
//     saturation at the λ where this model is useful).
//
// Experiment T5 validates all of this against the discrete-event
// executor. The walk is stage after stage, so it refuses a non-chain.
func PredictLatency(g *grid.Grid, spec PipelineSpec, m Mapping, loads []float64, lambda, cv float64) (LatencyPrediction, error) {
	if err := spec.Validate(); err != nil {
		return LatencyPrediction{}, err
	}
	if spec.Topo != nil && !spec.Topo.Linear() {
		return LatencyPrediction{}, fmt.Errorf("model: PredictLatency needs a chain, got %s", spec.Topo)
	}
	if err := m.Validate(spec.NumStages(), g.NumNodes()); err != nil {
		return LatencyPrediction{}, err
	}
	if lambda <= 0 || math.IsNaN(lambda) {
		return LatencyPrediction{}, fmt.Errorf("model: PredictLatency with invalid rate %v", lambda)
	}
	if cv < 0 {
		return LatencyPrediction{}, fmt.Errorf("model: negative cv %v", cv)
	}
	loadOf := func(n grid.NodeID) float64 {
		if loads == nil {
			return 0
		}
		return ClampLoad(loads[n])
	}
	if loads != nil && len(loads) != g.NumNodes() {
		return LatencyPrediction{}, fmt.Errorf("model: %d load estimates for %d nodes", len(loads), g.NumNodes())
	}

	// Aggregate per-node arrival rate and service moments over stage
	// visits. A visit of stage i on replica-node n occurs at rate
	// λ/len(replicas) with service s = work_i / (c·eff-speed).
	type mom struct {
		rate float64 // total visit rate λ_n
		es   float64 // Σ rate·E[S] (→ divide by rate)
		es2  float64 // Σ rate·E[S²]
	}
	moms := make([]mom, g.NumNodes())
	scale := 1 + cv*cv // E[S²] = (1+cv²)·E[S]² per visit class
	for i, st := range spec.Stages {
		if st.Work == 0 {
			continue
		}
		replicas := m.Assign[i]
		vRate := lambda / float64(len(replicas))
		for _, n := range replicas {
			node := g.Node(n)
			eff := node.Speed * (1 - loadOf(n)) * float64(node.Cores)
			s := st.Work / eff
			moms[n].rate += vRate
			moms[n].es += vRate * s
			moms[n].es2 += vRate * s * s * scale
		}
	}

	// Per-node P-K waiting time.
	wait := make([]float64, g.NumNodes())
	maxRho := 0.0
	for n := range moms {
		if moms[n].rate == 0 {
			continue
		}
		rho := moms[n].es // λ_n · E[S] summed per class = utilisation
		if rho > maxRho {
			maxRho = rho
		}
		if rho >= 1 {
			return LatencyPrediction{MaxUtilisation: rho}, fmt.Errorf(
				"model: node %d saturated (utilisation %.3f) at rate %v", n, rho, lambda)
		}
		wait[n] = moms[n].es2 / (2 * (1 - rho))
	}

	// Walk the first-replica path: per-visit service + the visited
	// node's waiting time + transfers.
	service := 0.0
	totalWait := 0.0
	prev := spec.Source
	prevBytes := spec.InBytes
	for i, st := range spec.Stages {
		if spec.Topo != nil && i > 0 {
			// A graph's edges carry their own payload, as in Predict.
			prevBytes = spec.Topo.Edges[spec.Topo.InEdges(i)[0]].Bytes
		}
		replicas := m.Assign[i]
		// Expected wait/service averaged across replicas (the item is
		// dealt to one uniformly).
		var s, w float64
		for _, n := range replicas {
			node := g.Node(n)
			eff := node.Speed * (1 - loadOf(n)) * float64(node.Cores)
			s += st.Work / eff / float64(len(replicas))
			w += wait[n] / float64(len(replicas))
		}
		service += s
		totalWait += w
		n0 := replicas[0]
		if prev != n0 {
			service += g.Link(prev, n0).TransferDuration(prevBytes, 0)
		}
		prev, prevBytes = n0, st.OutBytes
	}
	if prev != spec.Sink {
		service += g.Link(prev, spec.Sink).TransferDuration(prevBytes, 0)
	}

	return LatencyPrediction{
		Mean:           service + totalWait,
		ServicePart:    service,
		WaitPart:       totalWait,
		MaxUtilisation: maxRho,
	}, nil
}
