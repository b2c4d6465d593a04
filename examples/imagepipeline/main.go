// Image-processing scenario: the bundled 4-stage image workload runs
// on a 6-node grid where one node is hit by a competing job mid-run.
// The example contrasts the static mapping with the reactive adaptive
// policy — the headline F1 experiment, told as an application story.
package main

import (
	"fmt"
	"log"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func main() {
	app := workload.Image()
	fmt.Printf("workload: %s (%d stages, %.2f ref-s per frame)\n",
		app.Name, app.Spec.NumStages(), app.Spec.TotalWork())

	const (
		horizon = 240.0
		spikeAt = 80.0
	)

	// Deployment-time mapping, found on an idle view of the grid.
	idle, err := mkGrid(-1, spikeAt)
	if err != nil {
		log.Fatal(err)
	}
	m0, pred, err := workload.Deploy(idle, app.Spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	victim := int(m0.Assign[1][0]) // node hosting the heavy filter stage
	fmt.Printf("deployment mapping %s, predicted %.2f frames/s\n", m0, pred.Throughput)
	fmt.Printf("a competing job lands on node%d at t=%.0fs (85%% load)\n\n", victim, spikeAt)

	tb := stats.NewTable("static vs adaptive over a load spike",
		"policy", "frames done", "thr before spike", "thr after spike", "remaps")
	for _, pol := range []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyReactive} {
		g, err := mkGrid(victim, spikeAt)
		if err != nil {
			log.Fatal(err)
		}
		out, err := workload.RunSim(g, app, m0, workload.SimOptions{
			Policy: pol, Interval: 1, Seed: 1, Duration: horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
		completions := out.Exec.Monitor().Completions()
		tb.AddRowf(pol.String(), out.Done,
			rate(completions, 0, spikeAt),
			rate(completions, spikeAt+20, horizon),
			out.Ctrl.Remaps)

		if pol == adaptive.PolicyReactive {
			for _, ev := range out.Ctrl.Events {
				fmt.Printf("  t=%6.1fs remap %s -> %s (predicted %.2f -> %.2f frames/s, %d frames migrated)\n",
					ev.Time, ev.From, ev.To, ev.PredictedOld, ev.PredictedNew, ev.Stats.Moved)
			}
		}
	}
	fmt.Println()
	fmt.Println(tb.String())
}

func mkGrid(victim int, spikeAt float64) (*grid.Grid, error) {
	nodes := make([]*grid.Node, 6)
	for i := range nodes {
		nodes[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
		if i == victim {
			nodes[i].Load = trace.NewSteps(0, trace.StepChange{T: spikeAt, Load: 0.85})
		}
	}
	return grid.NewGrid(grid.LANLink, nodes...)
}

func rate(times []float64, t0, t1 float64) float64 {
	n := 0
	for _, t := range times {
		if t >= t0 && t < t1 {
			n++
		}
	}
	return float64(n) / (t1 - t0)
}
