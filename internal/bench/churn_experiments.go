package bench

import (
	"fmt"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "F9", Title: "Node crash and recovery (true churn): fault-aware adaptive vs static", Run: runF9})
	register(Experiment{ID: "F10", Title: "Elastic join under rising load: new nodes folded into the mapping", Run: runF10})
}

// churnPolicies are the contenders of the churn experiments: the inert
// baseline against the fault-aware adaptive policies.
var churnPolicies = []adaptive.Policy{
	adaptive.PolicyStatic,
	adaptive.PolicyReactive,
	adaptive.PolicyPredictive,
}

// F9: true node failure. Unlike F7 (which only saturates a node's
// background load), the node hosting a pipeline stage actually goes
// Down during [60, 150): its in-flight work is lost and re-dispatched
// from the last stage boundary, and work bound for it must be rerouted
// or parked. The static mapping backs up behind the dead node until
// the rejoin; the fault-aware policies remap at the crash instant
// (bypassing hysteresis) and fold the node back in after its rejoin.
// This is the first experiment where correctness under loss — the
// completed/lost ledger — is measured alongside throughput.
func runF9(seed uint64) *Result {
	const (
		horizon  = 210.0
		crashAt  = 60.0
		rejoinAt = 150.0
		window   = 5.0
	)
	app := workload.Balanced(4, 0.15, 1e5)

	// Deployment-time mapping on an idle copy of the grid; the crash
	// then hits the node hosting the entry stage's first replica.
	m0 := deploy(spikeGrid(6, -1, 0, 0), app.Spec, seed)
	victim := int(m0.Assign[0][0])
	churn := must(grid.NewChurnSchedule(grid.Outage(fmt.Sprintf("node%d", victim), crashAt, rejoinAt)...))

	res := &Result{ID: "F9", Title: "node crash and recovery (true churn)"}
	tb := stats.NewTable(fmt.Sprintf("F9 crash of node%d during [%.0f,%.0f) — 6 idle nodes, 4 balanced stages", victim, crashAt, rejoinAt),
		"policy", "done", "lost", "retries", "remaps", "fault remaps", "availability")
	for _, p := range churnPolicies {
		g := spikeGrid(6, -1, 0, 0)
		must(g, g.SetChurn(churn))
		out := must(workload.RunSim(g, app, m0, workload.SimOptions{
			Policy: p, Interval: 1, Seed: seed, Duration: horizon,
		}))
		series := stats.WindowRate(out.Exec.Monitor().Completions(), 0, horizon, window)
		series.Name = p.String()
		res.Series = append(res.Series, series)
		tb.AddRowf(p.String(), out.Done, out.Exec.Lost(), out.Exec.Retries(),
			out.Ctrl.Remaps, out.Ctrl.FaultRemaps, churn.MeanAvailability(g, horizon))
	}
	tb.AddNote("expected shape: fault-aware policies evacuate at the crash instant and complete ≥ the static mapping's items; static parks work behind the dead node until the rejoin")
	res.Tables = []*stats.Table{tb}
	return res
}

// F10: elastic capacity. Two reserve nodes are declared in the grid
// but join only at t=60 and t=90, while the four founding nodes sink
// under a rising background-load ramp. The static mapping is stuck
// with the founders; the adaptive policies fold each new node into
// their next mapping search the moment it joins.
func runF10(seed uint64) *Result {
	const (
		horizon = 180.0
		join1   = 60.0
		join2   = 90.0
		window  = 5.0
	)
	app := workload.Balanced(4, 0.15, 1e5)

	churn := must(grid.NewChurnSchedule(
		grid.Join("node4", join1),
		grid.Join("node5", join2),
	))
	mk := func() *grid.Grid {
		nodes := make([]*grid.Node, 6)
		for i := range nodes {
			nodes[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
			if i < 4 {
				// Founders sink under staggered load ramps (40%–85%
				// terminal load): the spread is what lets a reactive
				// trigger see the trouble as imbalance rather than a
				// uniform slowdown.
				nodes[i].Load = trace.Ramp{T0: 30, T1: 120, From: 0, To: 0.4 + 0.15*float64(i)}
			}
		}
		g := must(grid.NewGrid(grid.LANLink, nodes...))
		return must(g, g.SetChurn(churn))
	}

	// Deployment-time mapping may only use the founders: the reserves
	// have not joined yet.
	m0 := deploy(mk(), app.Spec, seed)

	res := &Result{ID: "F10", Title: "elastic join under rising load"}
	tb := stats.NewTable("F10 reserves join at t=60 and t=90 while founder load ramps to 40–85%",
		"policy", "done", "lost", "retries", "remaps", "uses reserves", "availability")
	for _, p := range churnPolicies {
		g := mk()
		out := must(workload.RunSim(g, app, m0, workload.SimOptions{
			Policy: p, Interval: 1, Seed: seed, Duration: horizon,
		}))
		series := stats.WindowRate(out.Exec.Monitor().Completions(), 0, horizon, window)
		series.Name = p.String()
		res.Series = append(res.Series, series)
		final := out.Exec.Mapping()
		usesReserves := final.UsesNode(4) || final.UsesNode(5)
		tb.AddRowf(p.String(), out.Done, out.Exec.Lost(), out.Exec.Retries(), out.Ctrl.Remaps,
			usesReserves, churn.MeanAvailability(g, horizon))
	}
	tb.AddNote("expected shape: adaptive policies shift stages onto the fresh idle nodes and finish well ahead of static; a joined node appears in the final mapping")
	res.Tables = []*stats.Table{tb}
	return res
}
