package bench

import (
	"fmt"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "F7", Title: "Node load saturation and recovery: static vs adaptive (node stays Up)", Run: runF7})
	register(Experiment{ID: "T5", Title: "Latency model (M/G/1) vs simulation under Poisson arrivals", Run: runT5})
	register(Experiment{ID: "A3", Title: "Ablation: hysteresis gain vs churn", Run: runA3})
}

// F7: the load-saturation experiment. The node hosting two pipeline
// stages is saturated (load pinned at the maximum — it crawls at 2%
// speed but stays Up) during [60, 140) and then recovers. Static
// crawls at the saturation floor; adaptive policies evacuate and may
// return after recovery. True crash/rejoin churn — the node actually
// going Down — is experiment F9.
func runF7(seed uint64) *Result {
	const (
		horizon  = 240.0
		failAt   = 60.0
		recoverT = 140.0
	)
	app := workload.Balanced(4, 0.15, 1e5)

	mk := func(victim int) *grid.Grid {
		nodes := make([]*grid.Node, 5)
		for i := range nodes {
			nodes[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
			if i == victim {
				nodes[i].Load = grid.Saturate(nil, failAt, recoverT)
			}
		}
		return must(grid.NewGrid(grid.LANLink, nodes...))
	}
	// Initial mapping co-locates two stages on node 0 (so the outage
	// hits hard): stages (0,0,1,2).
	m0 := model.FromNodes(0, 0, 1, 2)

	res := &Result{ID: "F7", Title: "node outage and recovery"}
	tb := stats.NewTable("F7 outage of node0 during [60,140)",
		"policy", "done", "thr during outage", "thr after recovery", "remaps")
	for _, p := range mainPolicies {
		out := must(workload.RunSim(mk(0), app, m0, workload.SimOptions{
			Policy: p, Interval: 1, Seed: seed, Duration: horizon}))
		completions := out.Exec.Monitor().Completions()
		during := meanRateIn(completions, failAt+10, recoverT)
		after := meanRateIn(completions, recoverT+20, horizon)
		tb.AddRowf(p.String(), out.Done, during, after, out.Ctrl.Remaps)
	}
	tb.AddNote("expected shape: static collapses for the outage window; adaptive evacuates within seconds")
	res.Tables = []*stats.Table{tb}
	return res
}

// T5: validate the M/G/1 latency model against the executor under
// Poisson arrivals, sweeping utilisation and service variability.
func runT5(seed uint64) *Result {
	res := &Result{ID: "T5", Title: "latency model validation"}
	tb := stats.NewTable("T5 mean latency: M/G/1 prediction vs simulation (3 stages on 3 nodes)",
		"cv", "rho", "lambda", "predicted (s)", "measured (s)", "rel err")

	spec := model.Balanced(3, 0.1, 0)
	m := model.OneToOne(3)
	for _, cv := range []float64{0, 1} {
		for _, rho := range []float64{0.2, 0.5, 0.8} {
			lambda := rho / 0.1 // per-node utilisation = λ·s
			g := must(grid.Homogeneous(3, 1, grid.LANLink))
			pred := must(model.PredictLatency(g, spec, m, nil, lambda, cv))
			measured := simulatePoissonLatency(seed, g, spec, m, lambda, cv)
			tb.AddRowf(cv, rho, lambda, pred.Mean, measured, stats.RelErr(measured, pred.Mean))
		}
	}
	tb.AddNote("cv=1 (M/M/1): decomposition is near-exact at every rho")
	tb.AddNote("cv=0 (M/D/1): prediction is an upper bound that loosens with rho — deterministic service smooths departures, so downstream nodes see sub-Poisson arrivals and wait less than the model's per-node M/D/1 assumption")
	res.Tables = []*stats.Table{tb}
	return res
}

// simulatePoissonLatency measures mean pipeline latency with Poisson
// arrivals and (optionally) exponential service.
func simulatePoissonLatency(seed uint64, g *grid.Grid, spec model.PipelineSpec, m model.Mapping, lambda, cv float64) float64 {
	eng := &sim.Engine{}
	var sampler func(stage, seq int) float64
	if cv > 0 {
		root := rng.New(seed + 7)
		sampler = func(stage, seq int) float64 {
			r := root.Derive(uint64(stage)<<32 | uint64(uint32(seq)))
			return r.Exp(1 / spec.Stages[stage].Work)
		}
	}
	ex := must(exec.New(eng, g, spec, m, exec.Options{
		ArrivalRate: lambda,
		Seed:        seed,
		WorkSampler: sampler,
	}))
	ex.RunUntil(3000)
	lats := ex.Latencies()
	if len(lats) < 100 {
		panic(fmt.Sprintf("bench: T5 needs at least 100 completions for a latency estimate, got %d", len(lats)))
	}
	// Drop the warmup third.
	return stats.Mean(lats[len(lats)/3:])
}

// A3: hysteresis sweep. Noisy mean-reverting loads on every node make
// the "best" mapping flicker. Items are heavy (4 MB) and the network is
// a campus backbone, so every remap pays real migration and redirect
// cost; with no hysteresis the periodic controller chases the noise and
// loses throughput to its own churn.
func runA3(seed uint64) *Result {
	const horizon = 300.0
	app := workload.Balanced(4, 0.15, 4e6)
	gains := []float64{1.0, 1.15, 1.5, 2.0}

	res := &Result{ID: "A3", Title: "hysteresis ablation"}
	tb := stats.NewTable("A3 hysteresis gain vs churn (periodic policy, noisy walk loads, 4 MB items on campus links)",
		"gain", "done", "remaps", "migrations", "done per remap")

	mk := func() *grid.Grid {
		nodes := make([]*grid.Node, 6)
		for i := range nodes {
			nodes[i] = &grid.Node{
				Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1,
				Load: trace.NewRandomWalk(rng.New(seed+uint64(i)*17), horizon+60, 1, 0.35, 0.12, 0.15),
			}
		}
		return must(grid.NewGrid(grid.CampusLink, nodes...))
	}
	m0 := deploy(mk(), app.Spec, seed)

	for _, gain := range gains {
		out := must(workload.RunSim(mk(), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyPeriodic, Interval: 1, HysteresisGain: gain,
			Seed: seed, Duration: horizon,
		}))
		perRemap := float64(out.Done)
		if out.Ctrl.Remaps > 0 {
			perRemap = float64(out.Done) / float64(out.Ctrl.Remaps)
		}
		tb.AddRowf(gain, out.Done, out.Ctrl.Remaps, out.Exec.Migrations(), perRemap)
	}
	tb.AddNote("expected shape: remaps fall sharply with gain; throughput stays flat or improves — churn buys nothing")
	res.Tables = []*stats.Table{tb}
	return res
}
