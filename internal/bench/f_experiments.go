package bench

import (
	"fmt"
	"math"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/stats"
	"gridpipe/internal/topo"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "F1", Title: "Throughput timeline under a load spike: static vs adaptive vs oracle", Run: runF1})
	register(Experiment{ID: "F2", Title: "Makespan and speedup vs processor count", Run: runF2})
	register(Experiment{ID: "F3", Title: "Adaptation benefit vs perturbation intensity (crossover)", Run: runF3})
	register(Experiment{ID: "F4", Title: "Throughput vs replica count for the bottleneck stage", Run: runF4})
	register(Experiment{ID: "F5", Title: "Adaptation benefit vs node heterogeneity", Run: runF5})
	register(Experiment{ID: "F6", Title: "Throughput and efficiency vs stage count", Run: runF6})
	register(Experiment{ID: "F8", Title: "Diamond DAG vs linear chain: throughput, latency, adaptation", Run: runF8})
}

// F1: image pipeline on 6 nodes; the node hosting the bottleneck stage
// is hit by an 85% load step at t=60 of a 180 s horizon. One throughput
// series per policy plus a summary table.
func runF1(seed uint64) *Result {
	const (
		horizon = 180.0
		spikeAt = 60.0
		level   = 0.85
		window  = 5.0
	)
	app := workload.Image()

	// Find the deployment-time mapping on an idle copy of the grid, so
	// we know which node hosts the heavy "filter" stage and can aim the
	// spike at it.
	m0 := deploy(spikeGrid(6, -1, 0, 0), app.Spec, seed)
	victim := int(m0.Assign[1][0]) // the filter stage's first replica

	res := &Result{ID: "F1", Title: "throughput timeline under load spike"}
	tb := stats.NewTable("F1 summary (spike ×"+fmt.Sprintf("%.0f%%", level*100)+" at t=60)",
		"policy", "items done", "thr before", "thr after", "remaps", "migrated")
	for _, p := range mainPolicies {
		out := must(workload.RunSim(spikeGrid(6, victim, spikeAt, level), app, m0, workload.SimOptions{
			Policy: p, Interval: 1, Seed: seed, Duration: horizon,
		}))
		series := stats.WindowRate(out.Exec.Monitor().Completions(), 0, horizon, window)
		series.Name = p.String()
		res.Series = append(res.Series, series)
		before := meanRateIn(out.Exec.Monitor().Completions(), window, spikeAt)
		after := meanRateIn(out.Exec.Monitor().Completions(), spikeAt+2*window, horizon)
		migrated := out.Exec.Migrations()
		tb.AddRowf(p.String(), out.Done, before, after, out.Ctrl.Remaps, migrated)
	}
	tb.AddNote("expected shape: all policies equal before the spike; adaptive/oracle recover after it, static does not")
	res.Tables = []*stats.Table{tb}
	return res
}

// meanRateIn returns completions per second within [t0, t1), t0 < t1.
func meanRateIn(times []float64, t0, t1 float64) float64 {
	n := 0
	for _, t := range times {
		if t >= t0 && t < t1 {
			n++
		}
	}
	return float64(n) / (t1 - t0)
}

// F2: balanced 6-stage pipeline, 600 items; processor count sweep under
// a mean-reverting random-walk load on every node; static mapping vs
// reactive adaptation. Speedup is against static on one processor.
func runF2(seed uint64) *Result {
	app := workload.Balanced(6, 0.2, 1e5)
	const items = 600
	counts := []int{1, 2, 4, 6, 8, 12, 16}

	mkGrid := func(np int) *grid.Grid {
		nodes := make([]*grid.Node, np)
		for i := range nodes {
			nodes[i] = &grid.Node{
				Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1,
				Load: walkLoad(seed+uint64(i), 0.25, 1200),
			}
		}
		return must(grid.NewGrid(grid.LANLink, nodes...))
	}

	res := &Result{ID: "F2", Title: "speedup vs processor count"}
	tb := stats.NewTable("F2 makespan/speedup (600 items, 6 stages, walk load mean 0.25)",
		"Np", "static makespan", "adaptive makespan", "static speedup", "adaptive speedup", "remaps")
	sStatic := stats.NewSeries("static-speedup")
	sAdaptive := stats.NewSeries("adaptive-speedup")

	var base float64
	for _, np := range counts {
		g := mkGrid(np)
		m0 := deploy(g, app.Spec, seed)
		stc := must(workload.RunSim(g, app, m0, workload.SimOptions{
			Policy: adaptive.PolicyStatic, Seed: seed, Items: items}))
		ada := must(workload.RunSim(mkGrid(np), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyReactive, Interval: 2, Seed: seed, Items: items}))
		if np == 1 {
			base = stc.Makespan
		}
		tb.AddRowf(np, stc.Makespan, ada.Makespan, base/stc.Makespan, base/ada.Makespan, ada.Ctrl.Remaps)
		sStatic.Append(float64(np), base/stc.Makespan)
		sAdaptive.Append(float64(np), base/ada.Makespan)
	}
	tb.AddNote("expected shape: speedup saturates near the stage count; adaptive ≥ static throughout")
	res.Tables = []*stats.Table{tb}
	res.Series = []*stats.Series{sStatic, sAdaptive}
	return res
}

func walkLoad(seed uint64, mean, horizon float64) trace.Trace {
	return trace.NewRandomWalk(rngFor(seed), horizon, 1, mean, 0.05, 0.1)
}

// F3: spike-magnitude sweep. For each spike level the same scenario as
// F1 runs static and reactive; the benefit ratio locates the crossover
// below which adaptation is not worth its disruption.
func runF3(seed uint64) *Result {
	app := workload.Balanced(4, 0.15, 1e5)
	const (
		horizon = 120.0
		spikeAt = 30.0
	)
	levels := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95}

	res := &Result{ID: "F3", Title: "benefit vs perturbation intensity"}
	tb := stats.NewTable("F3 adaptive/static completion ratio vs spike level",
		"spike load", "static done", "adaptive done", "ratio", "remaps")
	series := stats.NewSeries("benefit-ratio")

	m0 := deploy(spikeGrid(6, -1, 0, 0), app.Spec, seed)
	victim := int(m0.Assign[0][0])

	for _, level := range levels {
		stc := must(workload.RunSim(spikeGrid(6, victim, spikeAt, level), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyStatic, Seed: seed, Duration: horizon}))
		ada := must(workload.RunSim(spikeGrid(6, victim, spikeAt, level), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyReactive, Interval: 1, Seed: seed, Duration: horizon}))
		ratio := float64(ada.Done) / float64(stc.Done)
		tb.AddRowf(level, stc.Done, ada.Done, ratio, ada.Ctrl.Remaps)
		series.Append(level, ratio)
	}
	tb.AddNote("expected shape: ratio ≈ 1 for small spikes (hysteresis suppresses remaps), grows with spike level")
	res.Tables = []*stats.Table{tb}
	res.Series = []*stats.Series{series}
	return res
}

// F4: replication sweep. The genome align stage is farmed over k nodes
// with a fixed mapping (no controller); measured and model-predicted
// throughput per k.
func runF4(seed uint64) *Result {
	app := workload.Genome()
	const items = 800
	g := must(grid.Homogeneous(8, 1, grid.LANLink))

	res := &Result{ID: "F4", Title: "replication of the bottleneck stage"}
	tb := stats.NewTable("F4 genome align-stage farming (8 idle nodes)",
		"replicas", "measured thr", "model thr", "rel err", "speedup")
	series := stats.NewSeries("measured-throughput")

	var base float64
	for k := 1; k <= 6; k++ {
		// parse on node 6, align replicated on nodes 0..k-1, score on 7.
		replicas := make([]grid.NodeID, k)
		for i := range replicas {
			replicas[i] = grid.NodeID(i)
		}
		m := model.FromNodes(6, 0, 7).WithReplicas(1, replicas...)
		pred := must(model.Predict(g, app.Spec, m, nil))
		out := must(workload.RunSim(g, app, m, workload.SimOptions{
			Policy: adaptive.PolicyStatic, Seed: seed, Items: items,
			MaxInFlight: 6 * k}))
		thr := float64(items) / out.Makespan
		if k == 1 {
			base = thr
		}
		tb.AddRowf(k, thr, pred.Throughput, stats.RelErr(thr, pred.Throughput), thr/base)
		series.Append(float64(k), thr)
	}
	tb.AddNote("expected shape: near-linear until another stage becomes critical, then flat")
	res.Tables = []*stats.Table{tb}
	res.Series = []*stats.Series{series}
	return res
}

// F5: heterogeneity sweep. Node speeds spread geometrically over ratio
// r. The static baseline is heterogeneity-blind — a plain one-stage-
// per-node round-robin mapping, which is exactly what a skeleton with
// no resource information deploys — while the adaptive run discovers
// the fast nodes at run time. The benefit of adaptation should grow
// with the speed ratio, because a blind placement wastes more and more
// of the fastest processors.
func runF5(seed uint64) *Result {
	app := workload.Balanced(4, 0.15, 1e5)
	const horizon = 240.0
	ratios := []float64{1, 2, 4, 8, 16}

	res := &Result{ID: "F5", Title: "benefit vs heterogeneity"}
	tb := stats.NewTable("F5 adaptive vs heterogeneity-blind static (8 nodes, round-robin start)",
		"speed ratio", "static done", "adaptive done", "ratio", "remaps")
	series := stats.NewSeries("benefit-ratio")

	for _, r := range ratios {
		mk := func() *grid.Grid {
			nodes := make([]*grid.Node, 8)
			for i := range nodes {
				// Geometric spread of speeds in [1, r].
				sp := math.Pow(r, float64(i)/7)
				nodes[i] = &grid.Node{
					Name: fmt.Sprintf("node%d", i), Speed: sp, Cores: 1,
					Load: walkLoad(seed+uint64(i)*31+uint64(r*100), 0.2, horizon+60),
				}
			}
			return must(grid.NewGrid(grid.LANLink, nodes...))
		}
		// Blind deployment: stage i on node i, oblivious to speeds.
		m0 := model.OneToOne(app.Spec.NumStages())
		stc := must(workload.RunSim(mk(), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyStatic, Seed: seed, Duration: horizon}))
		ada := must(workload.RunSim(mk(), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyReactive, Interval: 2, Seed: seed, Duration: horizon}))
		ratio := float64(ada.Done) / float64(stc.Done)
		tb.AddRowf(r, stc.Done, ada.Done, ratio, ada.Ctrl.Remaps)
		series.Append(r, ratio)
	}
	tb.AddNote("expected shape: benefit grows with heterogeneity (a blind placement wastes the fast nodes)")
	res.Tables = []*stats.Table{tb}
	res.Series = []*stats.Series{series}
	return res
}

// f8Apps builds the two equal-total-work contestants: a diamond
// (head → {left, right} → tail, the branches running concurrently)
// and a linear chain over the same four stages. Total per-item work is
// 0.6 reference-seconds in both; only the topology differs.
func f8Apps() (diamond, linear workload.App) {
	stages := []topo.Stage{
		{Name: "head", Work: 0.05, OutBytes: 1e5, Replicable: true},
		{Name: "left", Work: 0.25, OutBytes: 1e5, Replicable: true},
		{Name: "right", Work: 0.25, OutBytes: 1e5, Replicable: true},
		{Name: "tail", Work: 0.05, OutBytes: 1e4, Replicable: true},
	}
	dg := must(topo.Diamond(stages[0], []topo.Stage{stages[1], stages[2]}, stages[3]))
	diamond = workload.App{Name: "diamond", Spec: must(model.FromGraph(dg, 1e5)), CV: 0.2}
	linear = workload.App{Name: "linear", Spec: must(model.FromGraph(topo.Chain(stages...), 1e5)), CV: 0.2}
	return diamond, linear
}

// F8: topology shoot-out. The diamond and the equal-work chain run on
// the same 6-node grid; at t=60 an 85% load step hits the node hosting
// a heavy branch/middle stage. Static and reactive policies run for
// both topologies: the diamond's concurrent branches cut the empty-
// pipeline fill latency, and the adaptive controller remaps the DAG
// exactly as it remaps the chain.
func runF8(seed uint64) *Result {
	const (
		horizon = 180.0
		spikeAt = 60.0
		level   = 0.85
		window  = 5.0
	)
	diamond, linear := f8Apps()

	res := &Result{ID: "F8", Title: "diamond DAG vs linear chain"}
	tb := stats.NewTable("F8 diamond vs chain (equal total work, spike ×85% at t=60)",
		"topology", "policy", "items done", "thr before", "thr after", "fill latency", "remaps", "migrated")

	for _, app := range []workload.App{linear, diamond} {
		// Deployment-time mapping on an idle copy of the grid; the
		// spike then aims at the node hosting the first heavy stage
		// (index 1 in both topologies).
		m0 := deploy(spikeGrid(6, -1, 0, 0), app.Spec, seed)
		victim := int(m0.Assign[1][0])
		for _, p := range []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyReactive} {
			out := must(workload.RunSim(spikeGrid(6, victim, spikeAt, level), app, m0, workload.SimOptions{
				Policy: p, Interval: 1, Seed: seed, Duration: horizon,
			}))
			series := stats.WindowRate(out.Exec.Monitor().Completions(), 0, horizon, window)
			series.Name = app.Name + "-" + p.String()
			res.Series = append(res.Series, series)
			before := meanRateIn(out.Exec.Monitor().Completions(), window, spikeAt)
			after := meanRateIn(out.Exec.Monitor().Completions(), spikeAt+2*window, horizon)
			lats := out.Exec.Latencies()
			fill := math.NaN()
			if len(lats) > 0 {
				fill = stats.Mean(lats[:min(10, len(lats))])
			}
			tb.AddRowf(app.Name, p.String(), out.Done, before, after, fill,
				out.Ctrl.Remaps, out.Exec.Migrations())
		}
	}
	tb.AddNote("expected shape: equal throughput before the spike, diamond fill latency below the chain's (branches overlap), reactive recovers both topologies")
	res.Tables = []*stats.Table{tb}
	return res
}

// F6: stage-count scalability on an idle homogeneous grid with one
// node per stage: throughput should hold near 1/grain while per-node
// efficiency decays only with transfer overhead.
func runF6(seed uint64) *Result {
	const grain = 0.1
	counts := []int{2, 4, 8, 16, 32}
	res := &Result{ID: "F6", Title: "stage-count scalability"}
	tb := stats.NewTable("F6 throughput vs stage count (idle grid, one node per stage)",
		"stages", "measured thr", "ideal thr", "efficiency", "fill latency")
	series := stats.NewSeries("efficiency")
	for _, ns := range counts {
		app := workload.Balanced(ns, grain, 1e5)
		out := must(workload.RunSim(must(grid.Homogeneous(ns, 1, grid.LANLink)), app, model.OneToOne(ns), workload.SimOptions{
			Policy: adaptive.PolicyStatic, Seed: seed, Items: 400,
			MaxInFlight: 2 * ns}))
		thr := 400 / out.Makespan
		ideal := 1 / grain
		lat := stats.Mean(out.Exec.Latencies()[:10])
		tb.AddRowf(ns, thr, ideal, thr/ideal, lat)
		series.Append(float64(ns), thr/ideal)
	}
	tb.AddNote("expected shape: efficiency stays high; fill latency grows linearly with stage count")
	res.Tables = []*stats.Table{tb}
	res.Series = []*stats.Series{series}
	return res
}
