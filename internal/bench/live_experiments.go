package bench

import (
	"fmt"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{
		ID:        "F11",
		Title:     "Live adaptivity under injected background load: worker rebalancing on the goroutine runtime",
		Run:       runF11,
		WallClock: true,
	})
}

// runF11 closes the paper's loop on the live substrate: the genome
// pipeline executes as real goroutines, background load lands on the
// align stage's backing resource one third into the stream (service
// ×2.5), and each policy's wall-clock controller reacts — or, for the
// static baseline, does not. The table splits throughput at the
// injection point, so the recovery each policy bought over static is
// read straight off the "thr under load" column.
//
// Unlike F1–F10 this experiment measures real time on the machine
// running it: its numbers vary between runs and hosts (the seed only
// labels the run), though the ordering static < adaptive is robust —
// the adaptive policies fold the reserve half of the worker budget in,
// the static baseline cannot.
func runF11(seed uint64) *Result {
	return runF11Sized(1500)
}

// runF11Sized is runF11 with a configurable stream length, so the test
// suite can run the full scenario at a faster grain.
func runF11Sized(items int) *Result {
	app := workload.Genome()
	policies := []adaptive.Policy{
		adaptive.PolicyStatic,
		adaptive.PolicyReactive,
		adaptive.PolicyPredictive,
	}

	res := &Result{ID: "F11", Title: "live adaptivity under injected background load"}
	tb := stats.NewTable("F11 live goroutine pipeline, load 0.60 on align's resource at 1/3 of the stream (16-worker budget, half deployed)",
		"policy", "items", "thr before", "thr under load", "recovery vs static", "resizes", "final workers")

	var staticUnder float64
	for _, pol := range policies {
		out := must(workload.RunLive(app, workload.LiveOptions{
			Policy:       pol,
			Items:        items,
			SpikeLoad:    0.6,
			Victim:       workload.Auto,
			InjectAtItem: workload.Auto,
		}))
		if pol == adaptive.PolicyStatic {
			staticUnder = out.ThroughputUnder
		}
		recovery := "-"
		if pol != adaptive.PolicyStatic && staticUnder > 0 {
			recovery = fmt.Sprintf("%.2f", out.ThroughputUnder/staticUnder)
		}
		tb.AddRowf(pol.String(), out.Items, out.ThroughputBefore, out.ThroughputUnder,
			recovery, len(out.Events), fmt.Sprintf("%v", out.Replicas))
	}
	tb.AddNote("wall-clock measurement on this machine: values vary between runs; expected shape: equal before the injection, adaptive recovers a large fraction of the lost throughput, static cannot")
	res.Tables = []*stats.Table{tb}
	return res
}
