package bench

import (
	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "A1", Title: "Ablation: trigger policy (periodic vs reactive vs predictive)", Run: runA1})
	register(Experiment{ID: "A2", Title: "Ablation: reconfiguration protocol (drain-safe vs kill-restart)", Run: runA2})
}

// A1: the F1 spike scenario under every trigger policy, reporting
// throughput alongside controller churn (searches and remaps). The
// interesting trade-off: periodic matches reactive on throughput but
// burns a search every tick; predictive may act earlier.
func runA1(seed uint64) *Result {
	const (
		horizon = 180.0
		spikeAt = 60.0
		level   = 0.85
	)
	app := workload.Image()
	m0 := deploy(spikeGrid(6, -1, 0, 0), app.Spec, seed)
	victim := int(m0.Assign[1][0])

	res := &Result{ID: "A1", Title: "trigger policy ablation"}
	tb := stats.NewTable("A1 trigger policies on the F1 spike scenario",
		"policy", "done", "searches", "remaps", "searches/tick", "first remap after spike (s)")
	policies := []adaptive.Policy{
		adaptive.PolicyPeriodic,
		adaptive.PolicyReactive,
		adaptive.PolicyPredictive,
	}
	for _, p := range policies {
		out := must(workload.RunSim(spikeGrid(6, victim, spikeAt, level), app, m0, workload.SimOptions{
			Policy: p, Interval: 1, Seed: seed, Duration: horizon}))
		st := out.Ctrl
		first := -1.0
		for _, ev := range st.Events {
			if ev.Time >= spikeAt {
				first = ev.Time - spikeAt
				break
			}
		}
		perTick := 0.0
		if st.Ticks > 0 {
			perTick = float64(st.Searches) / float64(st.Ticks)
		}
		tb.AddRowf(p.String(), out.Done, st.Searches, st.Remaps, perTick, first)
	}
	tb.AddNote("expected shape: similar throughput; reactive/predictive search far less often than periodic")
	res.Tables = []*stats.Table{tb}
	return res
}

// A2: same scenario with chunky service times so items are in service
// at remap time; drain-safe vs kill-restart reconfiguration.
func runA2(seed uint64) *Result {
	const (
		horizon = 180.0
		spikeAt = 60.0
		level   = 0.85
	)
	// Chunky: 1-second stages make the kill penalty visible.
	app := workload.Balanced(3, 1.0, 1e5)
	m0 := deploy(spikeGrid(4, -1, 0, 0), app.Spec, seed)
	victim := int(m0.Assign[0][0])

	res := &Result{ID: "A2", Title: "remap protocol ablation"}
	tb := stats.NewTable("A2 reconfiguration protocols (3×1.0s stages, spike at t=60)",
		"protocol", "done", "remaps", "migrated", "killed+redone (ref-s)")
	for _, proto := range []exec.RemapProtocol{exec.DrainSafe, exec.KillRestart} {
		out := must(workload.RunSim(spikeGrid(4, victim, spikeAt, level), app, m0, workload.SimOptions{
			Policy: adaptive.PolicyReactive, Protocol: proto,
			Interval: 1, Seed: seed, Duration: horizon}))
		tb.AddRowf(proto.String(), out.Done, out.Ctrl.Remaps,
			out.Exec.Migrations(), out.Exec.RedoneWork())
	}
	tb.AddNote("expected shape: drain-safe redoes nothing; kill-restart discards in-service work for no throughput gain here")
	res.Tables = []*stats.Table{tb}
	return res
}
