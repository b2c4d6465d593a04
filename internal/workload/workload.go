// Package workload defines the synthetic applications the experiments
// run through the pipeline: stage structures, per-item service-demand
// distributions, and message sizes. They stand in for the streaming
// applications grid pipelines were motivated by (image processing,
// sequence matching, video transcoding), calibrated so the simulated
// runs exhibit the same bottleneck structure.
package workload

import (
	"fmt"
	"math"

	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

// App bundles a pipeline specification with a per-item service-demand
// sampler.
type App struct {
	// Name labels the workload in tables.
	Name string
	// Spec is the modelled pipeline (mean work per stage).
	Spec model.PipelineSpec
	// CV is the coefficient of variation of per-item service demand
	// (0 = deterministic).
	CV float64
}

// Sampler returns a work sampler for exec.Options: per (stage, seq) it
// draws a lognormal demand with the stage's mean and the app's CV.
// The sampler is deterministic in (seed, stage, seq) so repeated runs
// of the same experiment see identical demands.
func (a App) Sampler(seed uint64) func(stage, seq int) float64 {
	if a.CV <= 0 {
		return nil // deterministic: exec falls back to spec work
	}
	// Lognormal parameterised by mean m and cv: sigma² = ln(1+cv²),
	// mu = ln(m) - sigma²/2 — one constant per stage.
	sigma2 := math.Log(1 + a.CV*a.CV)
	sigma := math.Sqrt(sigma2)
	mu := make([]float64, len(a.Spec.Stages))
	for i, st := range a.Spec.Stages {
		mu[i] = math.Log(st.Work) - sigma2/2
	}
	root := rng.New(seed)
	return func(stage, seq int) float64 {
		if a.Spec.Stages[stage].Work == 0 {
			return 0
		}
		// A private stream per (stage, seq) keeps sampling independent
		// of processing order. The label is a full 64-bit key mix —
		// packing stage and seq into bit ranges would truncate seq to
		// 32 bits, aliasing items 2^32 apart under open-loop streams.
		r := root.Derive(rng.SeedFor(uint64(stage), uint64(seq)))
		return r.LogNormal(mu[stage], sigma)
	}
}

// Image is a 4-stage image-processing pipeline: decode, filter (the
// heavy, stateless bottleneck), sharpen, encode. Items are ~1 MB
// frames shrinking through the chain.
func Image() App {
	return App{
		Name: "image",
		CV:   0.25,
		Spec: model.PipelineSpec{
			InBytes: 1e6,
			Stages: []model.StageSpec{
				{Name: "decode", Work: 0.05, OutBytes: 4e6, Replicable: false},
				{Name: "filter", Work: 0.20, OutBytes: 4e6, Replicable: true},
				{Name: "sharpen", Work: 0.10, OutBytes: 4e6, Replicable: true},
				{Name: "encode", Work: 0.08, OutBytes: 0.8e6, Replicable: false},
			},
		},
	}
}

// Genome is a 3-stage sequence-matching pipeline: parse, align (heavy
// and highly variable, the classic farming candidate), score.
func Genome() App {
	return App{
		Name: "genome",
		CV:   0.8, // alignment cost varies wildly with sequence content
		Spec: model.PipelineSpec{
			InBytes: 0.2e6,
			Stages: []model.StageSpec{
				{Name: "parse", Work: 0.02, OutBytes: 0.2e6, Replicable: true},
				{Name: "align", Work: 0.35, OutBytes: 0.05e6, Replicable: true},
				{Name: "score", Work: 0.05, OutBytes: 0.01e6, Replicable: true},
			},
		},
	}
}

// Video is a 5-stage transcoding pipeline with two heavy stages.
func Video() App {
	return App{
		Name: "video",
		CV:   0.3,
		Spec: model.PipelineSpec{
			InBytes: 2e6,
			Stages: []model.StageSpec{
				{Name: "demux", Work: 0.01, OutBytes: 2e6, Replicable: false},
				{Name: "decode", Work: 0.12, OutBytes: 8e6, Replicable: true},
				{Name: "transform", Work: 0.08, OutBytes: 8e6, Replicable: true},
				{Name: "encode", Work: 0.25, OutBytes: 1e6, Replicable: true},
				{Name: "mux", Work: 0.01, OutBytes: 1e6, Replicable: false},
			},
		},
	}
}

// Balanced is a tunable-grain pipeline of ns identical stages; grain is
// the per-stage work in reference-seconds and bytes the inter-stage
// message size. Used by the scalability sweeps.
func Balanced(ns int, grain, bytes float64) App {
	return App{
		Name: fmt.Sprintf("balanced-%d", ns),
		Spec: model.Balanced(ns, grain, bytes),
	}
}

// ByName returns a bundled workload by name ("image", "genome",
// "video").
func ByName(name string) (App, error) {
	switch name {
	case "image":
		return Image(), nil
	case "genome":
		return Genome(), nil
	case "video":
		return Video(), nil
	default:
		return App{}, fmt.Errorf("workload: unknown app %q", name)
	}
}

// All returns the bundled domain workloads.
func All() []App {
	return []App{Image(), Genome(), Video()}
}
