package sched

import (
	"fmt"
	"math"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// ForLatency searches for the mapping that minimises predicted mean
// per-item latency while sustaining a required arrival rate — the
// objective an interactive (open-system) deployment cares about, as
// opposed to the saturated-throughput objective of the other
// strategies.
//
// The search hill-climbs over single-stage moves (like LocalSearch)
// but scores candidates with model.PredictLatency at the given Rate;
// mappings that cannot sustain the rate (a node saturates) are
// infeasible and only accepted if nothing feasible is known yet. Like
// model.PredictLatency, it refuses a stage graph that is not Linear.
type ForLatency struct {
	// Rate is the offered load in items/s the mapping must sustain.
	Rate float64
	// CV is the service-demand coefficient of variation used in the
	// latency model.
	CV float64
	// MaxIters bounds the climb (default 100).
	MaxIters int
}

// Name implements Searcher.
func (ForLatency) Name() string { return "for-latency" }

// Search implements Searcher. The returned Prediction is the
// throughput-model view of the chosen mapping (so callers can compare
// with the other strategies); the latency objective is available via
// model.PredictLatency.
func (l ForLatency) Search(g *grid.Grid, spec model.PipelineSpec, loads []float64) (model.Mapping, model.Prediction, error) {
	return l.SearchAvail(g, spec, loads, nil)
}

// SearchAvail implements Searcher: moves never target unavailable
// nodes.
func (l ForLatency) SearchAvail(g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	ns, np := spec.NumStages(), g.NumNodes()
	if ns == 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: empty pipeline")
	}
	if err := checkAvail(g, avail); err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	if l.Rate <= 0 {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: ForLatency needs a positive rate")
	}
	if spec.Topo != nil && !spec.Topo.Linear() {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf("sched: ForLatency rates chains only, got %s", spec.Topo)
	}
	maxIters := l.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}

	// Score returns (latency, feasible).
	score := func(m model.Mapping) (float64, bool) {
		p, err := model.PredictLatency(g, spec, m, loads, l.Rate, l.CV)
		if err != nil {
			return math.Inf(1), false
		}
		return p.Mean, true
	}

	// Start from the throughput-greedy solution: it spreads load, which
	// is usually feasible.
	cur, _, err := (Greedy{}).SearchAvail(g, spec, loads, avail)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	curLat, curFeasible := score(cur)

	for iter := 0; iter < maxIters; iter++ {
		improved := false
		for si := 0; si < ns; si++ {
			orig := cur.Assign[si][0]
			for n := 0; n < np; n++ {
				if grid.NodeID(n) == orig || !usable(avail, n) {
					continue
				}
				cur.Assign[si][0] = grid.NodeID(n)
				lat, feasible := score(cur)
				better := (feasible && !curFeasible) ||
					(feasible == curFeasible && lat < curLat*(1-1e-12))
				if better {
					curLat, curFeasible = lat, feasible
					orig = grid.NodeID(n)
					improved = true
				} else {
					cur.Assign[si][0] = orig
				}
			}
			cur.Assign[si][0] = orig
		}
		if !improved {
			break
		}
	}
	if !curFeasible {
		return model.Mapping{}, model.Prediction{}, fmt.Errorf(
			"sched: no mapping sustains %v items/s on this grid", l.Rate)
	}
	pred, err := model.Predict(g, spec, cur, loads)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	return cur, pred, nil
}
