// Prediction scratch: the reusable buffers behind PredictInto, so the
// scheduler's search loops — thousands of analytic evaluations per
// adaptation decision — run without allocating per candidate. A
// sync.Pool keeps warm scratches available to every strategy without
// threading an explicit context through each call site; hot loops that
// evaluate many candidates should Acquire once and Release when done
// rather than pay the pool round-trip per evaluation.
package model

import (
	"sync"

	"gridpipe/internal/grid"
	"gridpipe/internal/topo"
)

// flowEntry is one directed link's accumulated per-item bytes.
type flowEntry struct {
	a, b  grid.NodeID
	bytes float64
}

// PredictScratch holds every intermediate buffer one analytic
// evaluation needs: per-node busy times, the link-flow accumulator,
// the critical-path table, and the chain a nil-Topo spec is walked as.
// The zero value is ready to use; buffers grow on first use and are
// retained across evaluations.
type PredictScratch struct {
	busy   []float64
	flows  []flowEntry
	ready  []float64
	chains []*topo.Graph // chains[n] is the n-stage chain
}

// NewPredictScratch returns an empty scratch. Prefer
// AcquirePredictScratch/ReleasePredictScratch in steady-state loops so
// warmed buffers are shared.
func NewPredictScratch() *PredictScratch { return &PredictScratch{} }

var predictScratchPool = sync.Pool{New: func() any { return &PredictScratch{} }}

// AcquirePredictScratch takes a warm scratch from the package pool.
func AcquirePredictScratch() *PredictScratch {
	return predictScratchPool.Get().(*PredictScratch)
}

// ReleasePredictScratch returns a scratch to the pool. The caller must
// not use the scratch — or any Prediction.NodeBusy aliasing it — after
// release.
func ReleasePredictScratch(s *PredictScratch) { predictScratchPool.Put(s) }

// busyFor returns the per-node busy buffer sized and zeroed for np
// nodes.
func (s *PredictScratch) busyFor(np int) []float64 {
	if cap(s.busy) < np {
		s.busy = make([]float64, np)
	}
	s.busy = s.busy[:np]
	for i := range s.busy {
		s.busy[i] = 0
	}
	return s.busy
}

// graphFor returns the stage graph PredictInto walks: t, or for a nil
// t the scratch's own chain over stages, its edge payloads set from
// the stages on every call.
func (s *PredictScratch) graphFor(t *topo.Graph, stages []StageSpec) *topo.Graph {
	if t != nil {
		return t
	}
	for len(s.chains) <= len(stages) {
		s.chains = append(s.chains, topo.Chain(make([]topo.Stage, len(s.chains))...))
	}
	c := s.chains[len(stages)]
	for i := range c.Edges {
		c.Edges[i].Bytes = stages[i].OutBytes
	}
	return c
}

// readyFor returns the critical-path table sized (not zeroed: every
// entry is written before read) for ns stages.
func (s *PredictScratch) readyFor(ns int) []float64 {
	if cap(s.ready) < ns {
		s.ready = make([]float64, ns)
	}
	return s.ready[:ns]
}

// addFlow accumulates bytes onto the directed pair (a, b). Linear
// search keeps the accumulator allocation-free; the distinct-pair count
// is bounded by the stage graph's edges times replica fan, which is
// small in every workload the searches rate.
func (s *PredictScratch) addFlow(a, b grid.NodeID, bytes float64) {
	for i := range s.flows {
		if s.flows[i].a == a && s.flows[i].b == b {
			s.flows[i].bytes += bytes
			return
		}
	}
	s.flows = append(s.flows, flowEntry{a: a, b: b, bytes: bytes})
}

// CloneBusyInto copies the prediction's NodeBusy into dst (grown as
// needed) and repoints the prediction at the copy — the way callers
// detach a retained Prediction from a scratch they are about to reuse
// or release. It returns the (possibly regrown) dst for reuse.
func (p *Prediction) CloneBusyInto(dst []float64) []float64 {
	dst = append(dst[:0], p.NodeBusy...)
	p.NodeBusy = dst
	return dst
}
