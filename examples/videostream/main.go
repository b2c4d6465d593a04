// Video-transcoding scenario on a multi-site grid: the 5-stage video
// workload is mapped across two clusters joined by a WAN link. The
// example shows why the mapping model keeps chatty stage pairs inside
// one site (the 8 MB decoded frames must not cross the WAN), and what
// happens when the faster remote cluster becomes diurnally loaded.
package main

import (
	"fmt"
	"log"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sched"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func main() {
	app := workload.Video()
	fmt.Printf("workload: %s, stages:\n", app.Name)
	for _, st := range app.Spec.Stages {
		fmt.Printf("  %-10s %.2f ref-s/frame, emits %.1f MB\n", st.Name, st.Work, st.OutBytes/1e6)
	}

	mk := func(loaded bool) (*grid.Grid, error) {
		var remoteLoad trace.Trace
		if loaded {
			// Diurnal load on the remote (fast) site.
			remoteLoad = trace.Sine{Base: 0.45, Amp: 0.45, Period: 240}
		}
		return grid.MultiSite([]grid.Site{
			{Name: "local", Nodes: 3, Speed: 1},
			{Name: "remote", Nodes: 3, Speed: 2, Load: remoteLoad},
		}, grid.LANLink, grid.WANLink)
	}

	// 1. Idle grid: where does the model place the stages?
	g, err := mk(false)
	if err != nil {
		log.Fatal(err)
	}
	m0, pred, err := (sched.LocalSearch{Seed: 1}).Search(g, app.Spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nidle-grid mapping %s — predicted %.2f frames/s\n", m0, pred.Throughput)
	fmt.Println("(nodes 0-2 = local site, 3-5 = remote; heavy decode->transform->encode traffic stays within one site)")

	// Show the cost of ignoring the WAN: force decode and transform
	// onto different sites.
	naive := model.FromNodes(0, 0, 3, 3, 3)
	npred, err := model.Predict(g, app.Spec, naive, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WAN-crossing mapping %s would manage only %.3f frames/s (link-bound)\n",
		naive, npred.Throughput)

	// 2. Diurnally loaded remote site: static vs adaptive over a full
	// period.
	const horizon = 480.0
	tb := stats.NewTable("diurnal load on the remote site",
		"policy", "frames done", "remaps", "final mapping")
	for _, pol := range []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyPredictive} {
		gl, err := mk(true)
		if err != nil {
			log.Fatal(err)
		}
		out, err := workload.RunSim(gl, app, m0, workload.SimOptions{
			Policy: pol, Interval: 2, Seed: 1, Duration: horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRowf(pol.String(), out.Done, out.Ctrl.Remaps, out.Exec.Mapping().String())
	}
	fmt.Println()
	fmt.Println(tb.String())
}
