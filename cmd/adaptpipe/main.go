// Command adaptpipe runs a described pipeline on a described grid and
// reports what the adaptivity engine did — the "try your scenario"
// tool. By default the pipeline's cost model executes on a simulated
// grid in virtual time; -live executes the workload's stages as real
// CPU-bound goroutines on this machine, with the same adaptive
// controller resizing the per-stage worker pools on a wall clock.
//
// Usage:
//
//	adaptpipe -workload genome -nodes 8 -policy reactive -duration 300
//	adaptpipe -workload image -grid grid.json -policy predictive -items 2000
//	adaptpipe -workload video -nodes 6 -policy static -items 1000 -explain
//	adaptpipe -live                                 # genome workload, reactive policy
//	adaptpipe -live -policy predictive -bgload 4    # inject background CPU load mid-run
//
// Built-in workloads: image, genome, video (see internal/workload).
// -live needs no other flags: it defaults to the genome workload
// (every stage replicable — the interesting case for worker
// rebalancing). With -bgload it also runs the static baseline and
// reports the throughput recovery the adaptive policy achieved
// (experiment F11's scenario, reproducible from the command line).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sched"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "", "workload: image | genome | video (default: image simulated, genome live)")
		gridPath = flag.String("grid", "", "grid config JSON (default: -nodes homogeneous LAN)")
		nodes    = flag.Int("nodes", 8, "homogeneous node count when no -grid is given")
		policy   = flag.String("policy", "reactive", "static | periodic | reactive | predictive | oracle")
		items    = flag.Int("items", 0, "run this many items to completion")
		duration = flag.Float64("duration", 0, "or run for this much virtual time (s)")
		seed     = flag.Uint64("seed", 42, "random seed")
		explain  = flag.Bool("explain", false, "print the model's mapping ranking before running")
		kill     = flag.Bool("kill-restart", false, "use the kill-restart remap protocol")
		live     = flag.Bool("live", false, "execute the workload live (real goroutines, wall-clock adaptation)")
		spike    = flag.Float64("spike", 0.6, "live: background load injected on the heaviest stage's resource mid-run (0..0.95; 0 = none)")
		bgload   = flag.Int("bgload", 0, "live: additionally start this many in-process CPU hogs at the injection point")
		workers  = flag.Int("workers", 0, "live: total worker budget (default 16)")
		batch    = flag.Int("batch", 0, "live: boundary batch size (0 = per-item, -1 = adapted by the controller)")
	)
	flag.Parse()
	var err error
	if *live {
		err = runLive(*wl, *policy, *items, *spike, *bgload, *workers, *batch)
	} else {
		err = run(*wl, *gridPath, *nodes, *policy, *items, *duration, *seed, *explain, *kill)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptpipe: %v\n", err)
		os.Exit(1)
	}
}

// workloadByName resolves a workload, listing the menu on a miss (the
// same courtesy pipebench's unknown-experiment path extends).
func workloadByName(name string) (workload.App, error) {
	app, err := workload.ByName(name)
	if err != nil {
		var names []string
		for _, a := range workload.All() {
			names = append(names, a.Name)
		}
		return workload.App{}, fmt.Errorf("unknown workload %q; valid workloads: %s",
			name, strings.Join(names, ", "))
	}
	return app, nil
}

// parsePolicy resolves a policy name, listing the menu on a miss.
func parsePolicy(name string, live bool) (adaptive.Policy, error) {
	pol, err := adaptive.ParsePolicy(name)
	if err != nil {
		var names []string
		for _, p := range adaptive.Policies() {
			names = append(names, p.String())
		}
		return 0, fmt.Errorf("unknown policy %q; valid policies: %s",
			name, strings.Join(names, ", "))
	}
	if live && pol == adaptive.PolicyOracle {
		return 0, fmt.Errorf("policy %q is simulation-only (no ground-truth loads live); valid live policies: static, periodic, reactive, predictive", name)
	}
	return pol, nil
}

func run(wl, gridPath string, nodes int, policyName string, items int, duration float64, seed uint64, explain, kill bool) error {
	if wl == "" {
		wl = "image"
	}
	app, err := workloadByName(wl)
	if err != nil {
		return err
	}
	g, err := buildGrid(gridPath, nodes)
	if err != nil {
		return err
	}
	if items > 0 {
		duration = 0 // -items wins over -duration
	} else if duration == 0 {
		duration = 300
	}
	pol, err := parsePolicy(policyName, false)
	if err != nil {
		return err
	}

	fmt.Printf("workload %s: %d stages, total work %.3f ref-s/item\n",
		app.Name, app.Spec.NumStages(), app.Spec.TotalWork())
	fmt.Print(g.String())

	// A churn block in the grid config makes the scenario volatile: the
	// deployment mapping avoids not-yet-joined nodes and the executor
	// replays crash/rejoin/join/drain events in virtual time.
	churn := g.Churn()
	if churn != nil {
		fmt.Printf("churn: %d lifecycle events\n", len(churn.Events()))
	}
	m0, pred, err := workload.Deploy(g, app.Spec, seed)
	if err != nil {
		return err
	}
	fmt.Printf("deployment mapping %s — predicted %.3f items/s\n", m0, pred.Throughput)

	if explain {
		if err := explainMappings(g, app.Spec); err != nil {
			return err
		}
	}

	proto := exec.DrainSafe
	if kill {
		proto = exec.KillRestart
	}
	out, err := workload.RunSim(g, app, m0, workload.SimOptions{
		Items: items, Duration: duration,
		Policy: pol, Protocol: proto, Interval: 1, Seed: seed,
	})
	if err != nil {
		return err
	}
	elapsed := duration
	if items > 0 {
		elapsed = out.Makespan
	}
	ex, st := out.Exec, out.Ctrl
	fmt.Printf("\ncompleted %d items in %.2f virtual seconds\n", out.Done, elapsed)
	fmt.Printf("throughput %.3f items/s, %d remaps, %d items migrated, %.2f ref-s redone\n",
		float64(out.Done)/elapsed, st.Remaps, ex.Migrations(), ex.RedoneWork())
	if churn != nil {
		fmt.Printf("churn ledger: %d lost, %d retries, %.2f ref-s of progress destroyed, %d fault remaps, mean availability %.4f\n",
			ex.Lost(), ex.Retries(), ex.LostWork(), st.FaultRemaps, churn.MeanAvailability(g, elapsed))
	}
	fmt.Printf("final mapping %s\n", ex.Mapping())
	if len(st.Events) > 0 {
		tb := stats.NewTable("adaptation events", "t (s)", "from", "to", "pred old", "pred new", "moved", "fault")
		for _, ev := range st.Events {
			tb.AddRowf(ev.Time, ev.From.String(), ev.To.String(),
				ev.PredictedOld, ev.PredictedNew, ev.Stats.Moved, ev.Fault)
		}
		fmt.Println(tb.String())
	}
	return nil
}

// runLive executes the workload on this machine: each stage occupies
// its backing resource for its modelled work, and the live adaptive
// controller rebalances worker pools on a wall clock. One third into
// the run, -spike lands background load on the heaviest stage's
// resource (and -bgload starts real CPU hogs); a static baseline then
// quantifies the recovery the policy bought.
func runLive(wl, policyName string, items int, spike float64, bgload, budget, batch int) error {
	if wl == "" {
		// The sensible live default: every genome stage is replicable,
		// so worker rebalancing has the whole pipeline to play with.
		wl = "genome"
	}
	app, err := workloadByName(wl)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(policyName, true)
	if err != nil {
		return err
	}
	if items <= 0 {
		items = 2400
	}
	if budget <= 0 {
		budget = 16
	}

	fmt.Printf("live run: workload %s, policy %s, %d items, budget %d workers on %d CPUs\n",
		app.Name, pol, items, budget, runtime.NumCPU())
	if spike > 0 {
		fmt.Printf("injection at item %d: background load %.2f on the heaviest stage's resource (service ×%.2f)\n",
			items/3, spike, 1/(1-spike))
	}
	if bgload > 0 {
		fmt.Printf("injection at item %d: %d in-process CPU hogs\n", items/3, bgload)
	}

	if batch < 0 {
		batch = workload.Auto
		fmt.Println("boundary batching: grain adapted by the controller")
	} else if batch > 1 {
		fmt.Printf("boundary batching: fixed grain %d\n", batch)
	}
	opts := workload.LiveOptions{
		Policy:       pol,
		Items:        items,
		SpikeLoad:    spike,
		BgLoad:       bgload,
		MaxWorkers:   budget,
		Victim:       workload.Auto,
		InjectAtItem: workload.Auto,
		Batch:        batch,
	}
	out, err := workload.RunLive(app, opts)
	if err != nil {
		return err
	}
	injected := spike > 0 || bgload > 0
	printLive := func(r workload.LiveOutcome, label string) {
		fmt.Printf("\n[%s] %d items in %.2f s — %.1f items/s overall", label, r.Items, r.Elapsed, r.Throughput)
		if injected {
			fmt.Printf(" (%.1f before load, %.1f under load)", r.ThroughputBefore, r.ThroughputUnder)
		}
		fmt.Printf("\n[%s] %d resizes, final workers %v, final grain %d\n", label, len(r.Events), r.Replicas, r.Grain)
		for _, ev := range r.Events {
			fmt.Printf("  t=%5.2fs resize %s -> %s (predicted %.1f -> %.1f items/s)\n",
				ev.Time, ev.From, ev.To, ev.PredictedOld, ev.PredictedNew)
		}
	}
	printLive(out, pol.String())

	if injected && pol != adaptive.PolicyStatic {
		opts.Policy = adaptive.PolicyStatic
		if opts.Batch == workload.Auto {
			// The static baseline cannot walk grain; pin the one the
			// adaptive run settled on so the comparison isolates policy.
			opts.Batch = out.Grain
		}
		base, err := workload.RunLive(app, opts)
		if err != nil {
			return err
		}
		printLive(base, "static baseline")
		if base.ThroughputUnder > 0 {
			fmt.Printf("\nthroughput under load: %s %.1f vs static %.1f items/s — recovery ×%.2f\n",
				pol, out.ThroughputUnder, base.ThroughputUnder, out.ThroughputUnder/base.ThroughputUnder)
		}
	}
	return nil
}

func buildGrid(path string, nodes int) (*grid.Grid, error) {
	if path == "" {
		return grid.Homogeneous(nodes, 1, grid.LANLink)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := grid.LoadConfig(f)
	if err != nil {
		return nil, err
	}
	return cfg.Build()
}

// explainMappings ranks the search strategies' proposals under the
// analytic model, including the latency-objective search at half the
// grid's sustainable rate.
func explainMappings(g *grid.Grid, spec model.PipelineSpec) error {
	tb := stats.NewTable("mapping proposals (idle grid)",
		"strategy", "mapping", "predicted items/s", "mean latency (s)")
	searchers := []sched.Searcher{
		sched.ContiguousDP{}, sched.Greedy{}, sched.LocalSearch{Seed: 7},
	}
	// A conservative probe rate for the latency column: half the best
	// throughput any strategy achieves.
	var bestThr float64
	type rowT struct {
		name string
		m    model.Mapping
		thr  float64
	}
	var rows []rowT
	for _, s := range searchers {
		m, pred, err := s.Search(g, spec, nil)
		if err != nil {
			return err
		}
		rows = append(rows, rowT{s.Name(), m, pred.Throughput})
		if pred.Throughput > bestThr {
			bestThr = pred.Throughput
		}
	}
	rate := bestThr / 2
	if lm, lpred, err := (sched.ForLatency{Rate: rate}).Search(g, spec, nil); err == nil {
		rows = append(rows, rowT{"for-latency", lm, lpred.Throughput})
	}
	for _, r := range rows {
		lat := "-"
		if lp, err := model.PredictLatency(g, spec, r.m, nil, rate, 0); err == nil {
			lat = fmt.Sprintf("%.4f", lp.Mean)
		}
		tb.AddRowf(r.name, r.m.String(), r.thr, lat)
	}
	tb.AddNote("latency column evaluated at %.2f items/s (half the best predicted throughput)", rate)
	fmt.Println(tb.String())
	return nil
}
