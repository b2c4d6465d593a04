package model

import (
	"fmt"

	"gridpipe/internal/grid"
	"gridpipe/internal/topo"
)

// StageSpec describes one pipeline stage for modelling purposes: the
// stage graph's own stage type, so a spec and its graph share it.
type StageSpec = topo.Stage

// PipelineSpec describes a whole pipeline for modelling: the stages
// plus where inputs originate and outputs must be delivered.
//
// The data flow is a stage graph (fan-out splits, fan-in merges — see
// internal/topo). A nil Topo is the linear chain over Stages (stage i
// feeds stage i+1); otherwise Stages mirror the graph's node list
// one-for-one, which FromGraph guarantees. Methods take a pointer: a
// value receiver copies all 13 words per call, even inlined.
type PipelineSpec struct {
	Stages []StageSpec
	// InBytes is the size of each raw input entering stage 1 from the
	// source.
	InBytes float64
	// Source and Sink are the nodes holding the input and collecting
	// the output (the "user" endpoints of the era's models).
	Source, Sink grid.NodeID
	// Topo is the stage graph the data flows along. Nil means the
	// chain over Stages: the model walks the chain its PredictScratch
	// holds, every other consumer the one Graph builds.
	Topo *topo.Graph
	// Grains, when non-empty, gives every stage boundary its own batch
	// size: Grains[i] is the grain of the batches entering stage i
	// (Grains[0] = the head batcher's grain). Length must equal the
	// stage count; a uniform grain is a uniform vector. Entries 0 and 1
	// both mean per-item transfer, and so does an empty vector. Larger
	// grains divide the boundary's per-batch cost and per-transfer link
	// latency across Grains[i] items. This is the model-side mirror of
	// the live runtime's EnableBatchEdges.
	Grains []int
	// BatchOverheads, when non-empty, gives every stage boundary its
	// fixed per-batch cost h in reference-seconds (BatchOverheads[i]
	// entering stage i): the channel/limiter/reorderer synchronization
	// a batch pays once regardless of how many items it carries,
	// amortized as h/grain per item. Length must equal the stage count.
	// Empty (the default) models free boundaries, which keeps unbatched
	// predictions bit-identical.
	BatchOverheads []float64
}

// EffGrainAt returns the batch size the model charges at stage i's
// input boundary: the per-boundary vector entry, floored at 1 so a
// zero entry or an empty vector behaves per-item.
func (p *PipelineSpec) EffGrainAt(i int) float64 {
	if len(p.Grains) == 0 {
		return 1
	}
	if g := p.Grains[i]; g > 1 {
		return float64(g)
	}
	return 1
}

// OverheadAt returns the per-batch cost at stage i's input boundary
// (0 when BatchOverheads is empty).
func (p *PipelineSpec) OverheadAt(i int) float64 {
	if len(p.BatchOverheads) == 0 {
		return 0
	}
	return p.BatchOverheads[i]
}

// Batched reports whether the batch-aware cost terms are live: any
// boundary with a grain above 1 or a nonzero per-batch overhead. An
// unbatched spec takes the legacy arithmetic paths exactly, so its
// predictions stay bit-identical to earlier releases.
func (p *PipelineSpec) Batched() bool {
	for _, g := range p.Grains {
		if g > 1 {
			return true
		}
	}
	for _, h := range p.BatchOverheads {
		if h > 0 {
			return true
		}
	}
	return false
}

// AtGrains returns a copy of the spec evaluated at the per-boundary
// grain vector (grains[i] entering stage i) — the grain axis of the
// scheduler's search (see sched.SearchGrainVector). The slice is
// copied, so callers may reuse their buffer across candidates.
func (p *PipelineSpec) AtGrains(grains []int) PipelineSpec {
	q := *p
	q.Grains = append([]int(nil), grains...)
	return q
}

// FromGraph builds a spec whose Stages mirror the graph's nodes and
// whose data flow follows the graph's edges.
func FromGraph(g *topo.Graph, inBytes float64) (PipelineSpec, error) {
	if g == nil {
		return PipelineSpec{}, fmt.Errorf("model: FromGraph with nil graph")
	}
	if err := g.Validate(); err != nil {
		return PipelineSpec{}, err
	}
	return PipelineSpec{
		Stages:  append([]StageSpec(nil), g.Stages...),
		InBytes: inBytes,
		Topo:    g,
	}, nil
}

// Graph returns the spec's stage graph: Topo when set, otherwise a
// freshly built chain over Stages.
func (p *PipelineSpec) Graph() *topo.Graph {
	if p.Topo != nil {
		return p.Topo
	}
	return topo.Chain(p.Stages...)
}

// NumStages returns the number of stages.
func (p *PipelineSpec) NumStages() int { return len(p.Stages) }

// TotalWork returns the summed per-item service demand across stages.
func (p *PipelineSpec) TotalWork() float64 {
	s := 0.0
	for _, st := range p.Stages {
		s += st.Work
	}
	return s
}

// Validate reports specification errors.
func (p *PipelineSpec) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("model: pipeline has no stages")
	}
	for i, st := range p.Stages {
		if st.Work < 0 {
			return fmt.Errorf("model: stage %d (%s) has negative work %v", i, st.Name, st.Work)
		}
		if st.OutBytes < 0 {
			return fmt.Errorf("model: stage %d (%s) has negative output size %v", i, st.Name, st.OutBytes)
		}
	}
	if p.InBytes < 0 {
		return fmt.Errorf("model: negative input size %v", p.InBytes)
	}
	if len(p.Grains) != 0 && len(p.Grains) != len(p.Stages) {
		return fmt.Errorf("model: grain vector has %d entries, spec has %d stages", len(p.Grains), len(p.Stages))
	}
	for i, g := range p.Grains {
		if g < 0 {
			return fmt.Errorf("model: negative grain %d at boundary %d", g, i)
		}
	}
	if len(p.BatchOverheads) != 0 && len(p.BatchOverheads) != len(p.Stages) {
		return fmt.Errorf("model: batch-overhead vector has %d entries, spec has %d stages", len(p.BatchOverheads), len(p.Stages))
	}
	for i, h := range p.BatchOverheads {
		if h < 0 {
			return fmt.Errorf("model: negative batch overhead %v at boundary %d", h, i)
		}
	}
	if p.Topo != nil {
		if err := p.Topo.Validate(); err != nil {
			return err
		}
		if p.Topo.NumStages() != len(p.Stages) {
			return fmt.Errorf("model: topology has %d stages, spec has %d",
				p.Topo.NumStages(), len(p.Stages))
		}
	}
	return nil
}

// Balanced returns a pipeline of ns identical stages, a standard
// fixture across tests and scalability experiments.
func Balanced(ns int, work, bytes float64) PipelineSpec {
	stages := make([]StageSpec, ns)
	for i := range stages {
		stages[i] = StageSpec{
			Name:       fmt.Sprintf("stage%d", i),
			Work:       work,
			OutBytes:   bytes,
			Replicable: true,
		}
	}
	return PipelineSpec{Stages: stages, InBytes: bytes}
}
