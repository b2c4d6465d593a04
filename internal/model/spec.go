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
// value receiver copies all 11 words per call, even inlined.
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
	// Grain is the batch size every stage boundary carries: the model
	// side of the live pipeline's one grain (pipeline.EnableBatch),
	// which the head forms and every stage keeps 1-for-1. 0 and 1 both
	// mean per-item transfer. A larger grain divides every boundary's
	// per-batch cost and every transfer's link latency across Grain
	// items.
	Grain int
	// BatchOverheads, when non-empty, gives every stage boundary its
	// fixed per-batch cost h in reference-seconds (BatchOverheads[i]
	// entering stage i): the queue/in-flight-count/reorder synchronization
	// a batch pays once regardless of how many items it carries,
	// amortized as h/Grain per item. It is per boundary because it is
	// a measured cost, not a grain. Length must equal the stage count.
	// Empty (the default) models free boundaries, which keeps unbatched
	// predictions bit-identical.
	BatchOverheads []float64
}

// EffGrain returns the batch size the model charges at every
// boundary: Grain, floored at 1 so grain 0 behaves per-item.
func (p *PipelineSpec) EffGrain() float64 {
	if p.Grain > 1 {
		return float64(p.Grain)
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

// Batched reports whether the batch-aware cost terms are live: a grain
// above 1 or any boundary with a nonzero per-batch overhead. An
// unbatched spec takes the legacy arithmetic paths exactly, so its
// predictions stay bit-identical to earlier releases.
func (p *PipelineSpec) Batched() bool {
	if p.Grain > 1 {
		return true
	}
	for _, h := range p.BatchOverheads {
		if h > 0 {
			return true
		}
	}
	return false
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
	if p.Grain < 0 {
		return fmt.Errorf("model: negative grain %d", p.Grain)
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
