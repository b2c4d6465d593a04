// Adaptive cross-job arbitration: the cluster wiring of the
// substrate-agnostic adaptive.Controller (internal/adaptive, PR 4).
//
//   - Sensor: the grid's NWS-style node sensors provide per-node load
//     estimates (last/forecast/oracle, exactly as simadapt); the
//     observed signal is the weighted max-min objective over the
//     active jobs — min_j observed-throughput_j / weight_j — and the
//     "slowdown" vector is each job's degradation factor, so the
//     imbalance trigger fires on unfairness (one tenant degrading far
//     more than another), not on stage spread;
//   - Actuator: the arbiter re-divides the nodes under the current
//     load estimates, each job's mapping is re-searched inside its new
//     lease against the others' reservations, and every moved job is
//     remapped under the configured protocol;
//   - Clock: the shared engine's virtual-time ticker.
//
// Hysteresis and cooldown come from the shared controller core: a
// re-division actuates only when the predicted post-arbitration
// objective clears HysteresisGain × the current one.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
)

// arbSub implements adaptive.Sensor and adaptive.Actuator over one
// cluster.
type arbSub struct {
	c *Cluster
	// Reused per-tick buffers: the controller keeps none of them past
	// the tick, and the divider copies the loads it memoizes.
	loadBuf []float64
	slowBuf []float64
	curBuf  []model.Mapping
	ps      model.PredictScratch
}

func (s *arbSub) Sample(now float64) {
	for _, ns := range s.c.sensors {
		ns.Sample(now)
	}
}

// Loads returns the per-node background-load vector the policy
// decides with, through the shared monitor.Estimate path. The slice is
// valid until the next call.
func (s *arbSub) Loads(mode adaptive.LoadMode, now float64) []float64 {
	m := monitor.EstimateLast
	switch mode {
	case adaptive.LoadPredicted:
		m = monitor.EstimatePredicted
	case adaptive.LoadOracle:
		m = monitor.EstimateOracle
	}
	if s.loadBuf == nil {
		s.loadBuf = make([]float64, len(s.c.sensors))
	}
	for i, ns := range s.c.sensors {
		s.loadBuf[i] = ns.Estimate(m, now)
	}
	return s.loadBuf
}

// Throughput returns the observed fairness objective: the minimum
// weighted exit rate across active jobs, NaN while no job has signal.
func (s *arbSub) Throughput(window, now float64) float64 {
	out := math.NaN()
	for _, j := range s.c.running {
		obs := j.ex.Monitor().RecentThroughput(window, now)
		if math.IsNaN(obs) {
			continue
		}
		w := obs / j.spec.NormWeight()
		if math.IsNaN(out) || w < out {
			out = w
		}
	}
	return out
}

// Slowdowns reports each active job's degradation factor — predicted
// over observed throughput — so the controller's imbalance trigger
// reads cross-job unfairness.
func (s *arbSub) Slowdowns() []float64 {
	actives := s.c.running
	if cap(s.slowBuf) < len(actives) {
		s.slowBuf = make([]float64, len(actives))
	}
	s.slowBuf = s.slowBuf[:len(actives)]
	for i, j := range actives {
		obs := j.ex.Monitor().RecentThroughput(s.c.cfg.ThroughputWindow, s.c.eng.Now())
		if math.IsNaN(obs) || obs <= 0 || j.pred.Throughput <= 0 {
			s.slowBuf[i] = math.NaN()
			continue
		}
		s.slowBuf[i] = j.pred.Throughput / obs
	}
	return s.slowBuf
}

// Expected rates the current leases under the load estimates: the
// weighted max-min objective of every active job's current mapping.
// Evaluations run through the subject's own scratch — this fires every
// tick, and only the throughput scalar is kept.
func (s *arbSub) Expected(loads []float64) (reference, hysteresis float64) {
	obj := math.NaN()
	for _, j := range s.c.running {
		pred, err := model.PredictInto(s.c.g, j.spec.Spec, j.mapping, loads, &s.ps)
		if err != nil {
			panic(fmt.Sprintf("cluster: predict job %q: %v", j.spec.Name, err))
		}
		w := pred.Throughput / j.spec.NormWeight()
		if math.IsNaN(obj) || w < obj {
			obj = w
		}
	}
	return obj, obj
}

// arbPlan is one proposed cross-job re-division.
type arbPlan struct {
	jobs     []*Job
	masks    []model.CapacityMask
	mappings []model.Mapping
	preds    []model.Prediction
}

// leases renders a plan (or the current state) for the event log.
type leases string

func (l leases) String() string { return string(l) }

func renderLeases(jobs []*Job, mappings []model.Mapping) leases {
	var b strings.Builder
	for i, j := range jobs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%s", j.spec.Name, mappings[i])
	}
	return leases(b.String())
}

// Propose re-divides the grid under the load estimates: new leases
// from the arbiter, new mappings searched inside them against the
// other tenants' reservations — via the incremental divider, so
// tenants whose inputs are unchanged replay their memoized search —
// and the predicted post-arbitration objective.
func (s *arbSub) Propose(loads []float64) (*adaptive.Proposal, bool) {
	c := s.c
	actives := c.running
	if len(actives) == 0 {
		return nil, false
	}
	tenants, out := c.roundArgs(actives)
	if err := c.div.Round(nil, tenants, loads, out); err != nil {
		panic(fmt.Sprintf("cluster: arbitrate: %v", err))
	}
	objective := math.NaN()
	changed := false
	cur := s.curBuf[:0]
	for i, a := range actives {
		cur = append(cur, a.mapping)
		if !out[i].Mapping.Equal(cur[i]) {
			changed = true
		}
		w := out[i].Pred.Throughput / a.spec.NormWeight()
		if math.IsNaN(objective) || w < objective {
			objective = w
		}
	}
	s.curBuf = cur
	if !changed {
		return nil, true
	}
	// The plan owns everything it carries across the Propose→Apply gap:
	// actives and the placement masks alias reused round buffers.
	plan := &arbPlan{
		jobs:     append([]*Job(nil), actives...),
		masks:    make([]model.CapacityMask, len(actives)),
		mappings: make([]model.Mapping, len(actives)),
		preds:    make([]model.Prediction, len(actives)),
	}
	for i := range actives {
		plan.masks[i] = append(model.CapacityMask(nil), out[i].Mask...)
		plan.mappings[i] = out[i].Mapping
		plan.preds[i] = out[i].Pred
	}
	return &adaptive.Proposal{
		From:      renderLeases(actives, cur),
		To:        renderLeases(plan.jobs, plan.mappings),
		Predicted: objective,
		Ref:       plan,
	}, true
}

// Apply actuates a plan: every job whose mapping moved is remapped and
// its lease updated.
func (s *arbSub) Apply(p *adaptive.Proposal) adaptive.Actuation {
	plan := p.Ref.(*arbPlan)
	var act adaptive.Actuation
	s.c.arbitrations++
	for i, j := range plan.jobs {
		if j.state != JobRunning {
			continue // finished between Propose and Apply (same tick: cannot happen, but stay safe)
		}
		j.setMask(plan.masks[i])
		if !plan.mappings[i].Equal(j.mapping) {
			st, err := j.ex.Remap(plan.mappings[i], s.c.cfg.Protocol)
			if err != nil {
				panic(fmt.Sprintf("cluster: job %q remap: %v", j.spec.Name, err))
			}
			act.Moved += st.Moved
			act.Killed += st.Killed
			act.RedoneWork += st.RedoneWork
			if st.Changed {
				act.Changed = true
				j.remaps++
			}
		}
		j.mapping = plan.mappings[i]
		j.pred = plan.preds[i]
	}
	return act
}
