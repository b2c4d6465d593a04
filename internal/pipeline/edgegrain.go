// Per-edge granularity: every stage boundary can carry its own batch
// grain, instead of one pipeline-wide knob.
//
// The cost asymmetry this serves: boundaries differ. An edge that
// crosses a high-latency link (or a boundary whose per-batch overhead
// dominates) wants a coarse grain; an edge feeding a latency-sensitive
// or load-imbalanced stage wants a fine one. The cost model prices
// these independently per boundary (model.PipelineSpec.Grains), so the
// live runtime must actuate them independently too.
//
// Not every edge can re-slab, though. Batches are formed once at the
// head and preserved 1-for-1 by every stage, which is what keeps a
// fan-in's zip aligned and lets a split share one slab across its
// out-edges. Changing batch size inside one branch of a diamond would
// break the zip downstream. The edges where re-slabbing is safe are
// exactly the *bridges* of the stage DAG — edges that lie on every
// entry→exit path (removing one disconnects entry from exit). A bridge
// always leaves a single-out stage and enters a single-in stage, sits
// on the trunk every item crosses, and therefore re-slabs the whole
// stream consistently: everything downstream — including any later
// fan-out/fan-in — sees one coherent re-slabbed sequence.
//
// EnableBatchEdges therefore accepts a full grain vector (head + one
// per edge) but only arms re-slab machinery on bridge edges; non-bridge
// edges must declare the grain that already flows on them (validated
// here), which keeps the vector honest as a model input. Bridge grains
// and the head grain are live actuators (SetGrainAt), walked one
// boundary at a time by liveadapt's coordinate-descent grain walker.
package pipeline

import (
	"fmt"
	"sync/atomic"
	"time"
)

// EnableBatchEdges sets a per-boundary grain vector before Run:
// grains[0] is the head batcher's grain and grains[1+ei] the grain of
// edge ei (in the edge order given to NewGraph; New's chain edges run
// 0→1, 1→2, …). Bridge edges — edges on every entry→exit path — may
// differ from the grain arriving at them; their producing stage
// re-slabs the stream (see edge, dataflow.go). Non-bridge edges cannot change
// slab size (it would misalign zips over shared slabs), so their entry
// must equal the effective grain flowing out of their From stage.
// linger <= 0 picks DefaultLinger.
//
// A coarsening bridge fills only while the head's slabs are not eager,
// and the head marks a full slab eager when its look-ahead finds the
// input dry (batch.go). A producer that runs ahead — any buffered input,
// or Process — therefore coarsens fully. One that hands over item by
// item through an unbuffered channel ping-pongs with the head: a look
// finds the next item only if the producer is already parked on its
// send, and every look that loses that race flushes the accumulator
// early, so the edge coarsens only in part (measured at grains [1, 64]
// with a bare sending loop: two items a slab, not 64). Give such an
// input a buffer.
func (p *Pipeline) EnableBatchEdges(grains []int, linger time.Duration) error {
	if want := 1 + len(p.edges); len(grains) != want {
		return fmt.Errorf("pipeline: EnableBatchEdges wants %d grains (head + one per edge), got %d", want, len(grains))
	}
	for b, g := range grains {
		if g < 1 {
			return fmt.Errorf("pipeline: EnableBatchEdges grain[%d] = %d below 1", b, g)
		}
	}
	if linger <= 0 {
		linger = DefaultLinger
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ran {
		return fmt.Errorf("pipeline: EnableBatchEdges after Run")
	}

	regrain := p.bridgeEdges()

	// Effective-grain walk: compute the slab size flowing into every
	// stage (stages are in topological order — From < To on all edges)
	// and reject vectors a run could not realise.
	inEdges := make([][]int, len(p.stages))
	for ei, e := range p.edges {
		inEdges[e.To] = append(inEdges[e.To], ei)
	}
	eff := make([]int, len(p.stages))
	for i := range p.stages {
		if len(inEdges[i]) == 0 { // entry
			eff[i] = grains[0]
			continue
		}
		val := -1
		for _, ei := range inEdges[i] {
			g := eff[p.edges[ei].From]
			if regrain[ei] {
				g = grains[1+ei]
			} else if grains[1+ei] != eff[p.edges[ei].From] {
				return fmt.Errorf("pipeline: EnableBatchEdges edge %d (%d→%d) is not a bridge: its grain %d cannot differ from the %d flowing out of stage %d",
					ei, p.edges[ei].From, p.edges[ei].To, grains[1+ei], eff[p.edges[ei].From], p.edges[ei].From)
			}
			if val >= 0 && g != val {
				return fmt.Errorf("pipeline: EnableBatchEdges fan-in at stage %d receives conflicting grains %d and %d", i, val, g)
			}
			val = g
		}
		eff[i] = val
	}

	p.linger.Store(int64(linger))
	for b, g := range grains {
		p.grains[b].Store(int64(g))
	}
	p.regrain = regrain
	p.actBounds = p.actBounds[:0]
	for ei, br := range regrain {
		if br {
			p.actBounds = append(p.actBounds, ei)
		}
	}
	return nil
}

// bridgeEdges marks every edge whose removal disconnects entry from
// exit. O(E·(V+E)): one reachability sweep per edge, on graphs that are
// a handful of stages.
func (p *Pipeline) bridgeEdges() []bool {
	n := len(p.stages)
	outEdges := make([][]int, n)
	entry, exit := -1, -1
	hasIn := make([]bool, n)
	for ei, e := range p.edges {
		outEdges[e.From] = append(outEdges[e.From], ei)
		hasIn[e.To] = true
	}
	for i := 0; i < n; i++ {
		if !hasIn[i] && entry < 0 {
			entry = i
		}
		if len(outEdges[i]) == 0 {
			exit = i
		}
	}
	bridges := make([]bool, len(p.edges))
	if n == 1 {
		return bridges
	}
	reach := make([]bool, n)
	for skip := range p.edges {
		for i := range reach {
			reach[i] = false
		}
		reach[entry] = true
		// Stages are topologically ordered, so one ascending pass
		// settles reachability.
		for i := 0; i < n; i++ {
			if !reach[i] {
				continue
			}
			for _, ei := range outEdges[i] {
				if ei != skip {
					reach[p.edges[ei].To] = true
				}
			}
		}
		bridges[skip] = !reach[exit]
	}
	return bridges
}

// GrainBoundaries is the number of independently adjustable grain
// boundaries: 1 (the head) unless EnableBatchEdges armed the bridge
// edges, then 1 + their number. Boundary 0 is always the head;
// boundaries 1..k-1 are the bridge edges in edge order.
func (p *Pipeline) GrainBoundaries() int { return 1 + len(p.actBounds) }

// boundaryGrain resolves adjustable boundary b to its slot in the grain
// vector; nil for an invalid boundary.
func (p *Pipeline) boundaryGrain(b int) *atomic.Int64 {
	switch {
	case b == 0:
		return &p.grains[0]
	case b > 0 && b <= len(p.actBounds):
		return &p.grains[1+p.actBounds[b-1]]
	}
	return nil
}

// GrainAt returns the current grain of adjustable boundary b (1 for an
// invalid boundary).
func (p *Pipeline) GrainAt(b int) int {
	g := p.boundaryGrain(b)
	if g == nil {
		return 1
	}
	return int(g.Load())
}

// SetGrainAt adjusts one boundary's grain (minimum 1) while the
// pipeline runs: boundary 0 resizes the head batcher's slabs, a bridge
// boundary resizes its edge's re-slab accumulator. It is the one grain
// actuator: liveadapt's grain walker drives it, one boundary at a time.
func (p *Pipeline) SetGrainAt(b, n int) error {
	if n < 1 {
		return fmt.Errorf("pipeline: SetGrainAt(%d, %d) below 1", b, n)
	}
	g := p.boundaryGrain(b)
	if g == nil {
		return fmt.Errorf("pipeline: SetGrainAt on invalid boundary %d of %d", b, p.GrainBoundaries())
	}
	g.Store(int64(n))
	return nil
}
