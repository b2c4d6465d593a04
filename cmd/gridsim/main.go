// Command gridsim inspects a simulated grid: it loads a JSON grid
// configuration (or a built-in preset), prints the topology, samples
// every node's background-load trace over a horizon, and reports each
// node's effective speed statistics — the "what does the resource pool
// look like" view an operator would consult before mapping a pipeline.
//
// Usage:
//
//	gridsim -preset multisite -horizon 300
//	gridsim -config grid.json -horizon 600 -csv
//	gridsim -preset loaded -json
//	gridsim -traffic bursty -rate 0.5 -traffic-out trace.jsonl
//
// -json emits one machine-readable document (the same tables as cell
// arrays plus every node's sampled load series) instead of the text
// rendering.
//
// -traffic previews an open-loop arrival stream instead of a grid: it
// generates a job trace from the named arrival process (see DESIGN.md,
// "Traffic engine"), prints the realised rate over windows, and with
// -traffic-out records the JSON-lines trace for later replay through
// the simulated cluster (internal/cluster's Cluster.SubmitTrace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gridpipe/internal/grid"
	"gridpipe/internal/rng"
	"gridpipe/internal/stats"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

func main() {
	var (
		configPath = flag.String("config", "", "grid config JSON file")
		preset     = flag.String("preset", "", "built-in preset: lan | multisite | loaded")
		horizon    = flag.Float64("horizon", 300, "sampling horizon in seconds")
		step       = flag.Float64("step", 1, "sampling step in seconds")
		csv        = flag.Bool("csv", false, "print per-node load series as CSV")
		jsonOut    = flag.Bool("json", false, "emit the grid summary, tables, and load series as JSON")
		seed       = flag.Uint64("seed", 42, "seed for stochastic presets")

		traffic      = flag.String("traffic", "", "preview an arrival stream of this family (poisson, uniform, bursty, diurnal, pareto) instead of a grid")
		rate         = flag.Float64("rate", 0.5, "traffic: mean job arrival rate in jobs/s")
		trafficApp   = flag.String("traffic-app", "genome", "traffic: app every generated job runs")
		trafficItems = flag.Int("traffic-items", 50, "traffic: items per generated job")
		trafficOut   = flag.String("traffic-out", "", "traffic: record the generated JSON-lines trace to this file (\"-\" = stdout)")
	)
	flag.Parse()

	if *traffic != "" {
		if err := previewTraffic(*traffic, *rate, *trafficApp, *trafficItems, *horizon, *seed, *trafficOut, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			if strings.Contains(err.Error(), "unknown arrival process") {
				fmt.Fprintf(os.Stderr, "valid -traffic values: %s\n", strings.Join(workload.ArrivalFamilies(), " "))
			}
			os.Exit(1)
		}
		return
	}

	g, err := buildGrid(*configPath, *preset, *seed, *horizon)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
		os.Exit(1)
	}

	var tables []*stats.Table
	if churn := g.Churn(); churn != nil {
		ct := stats.NewTable("node lifecycle schedule (churn)",
			"t (s)", "node", "event", "availability over horizon")
		for _, ev := range churn.Events() {
			ct.AddRowf(ev.T, ev.Node, ev.Kind.String(), churn.Availability(ev.Node, *horizon))
		}
		ct.AddNote("mean grid availability over horizon: %.4f", churn.MeanAvailability(g, *horizon))
		tables = append(tables, ct)
	}
	tb := stats.NewTable("node load over horizon",
		"node", "speed", "cores", "mean load", "max load", "mean eff speed")
	var series []*stats.Series
	for _, n := range g.Nodes() {
		s := stats.NewSeries(n.Name + "-load")
		for t := 0.0; t <= *horizon; t += *step {
			l := 0.0
			if n.Load != nil {
				l = n.Load.At(t)
			}
			s.Append(t, l)
		}
		loads := s.Values()
		mean := stats.Mean(loads)
		tb.AddRowf(n.Name, n.Speed, n.Cores, mean, stats.Max(loads), n.Speed*(1-mean))
		series = append(series, s)
	}
	tables = append(tables, tb)

	if *jsonOut {
		doc := struct {
			Nodes  int               `json:"nodes"`
			Tables []stats.TableDoc  `json:"tables"`
			Series []stats.SeriesDoc `json:"series"`
		}{Nodes: g.NumNodes()}
		for _, t := range tables {
			doc.Tables = append(doc.Tables, t.Doc())
		}
		for _, s := range series {
			doc.Series = append(doc.Series, s.Doc())
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}

	fmt.Print(g.String())
	for _, t := range tables {
		fmt.Println(t.String())
	}
	if *csv {
		for _, s := range series {
			fmt.Printf("--- %s ---\n%s", s.Name, s.CSV())
		}
	}
}

// previewTraffic generates an arrival stream, summarises its realised
// rate over fixed windows, and optionally records the trace.
func previewTraffic(family string, rate float64, app string, items int, horizon float64, seed uint64, out string, csv bool) error {
	proc, err := workload.NewArrival(family, rate, rng.SeedFor(seed, 0))
	if err != nil {
		return err
	}
	tr, err := workload.GenerateTrace(proc, []workload.MixEntry{{App: app, Share: 1, Items: items}}, horizon, rng.SeedFor(seed, 1))
	if err != nil {
		return err
	}
	times := make([]float64, len(tr))
	totalItems := 0
	for i, ev := range tr {
		times[i] = ev.T
		totalItems += ev.Items
	}
	// Window the realised rate coarsely enough that each window expects
	// several arrivals.
	window := horizon / 10
	if window <= 0 {
		window = 1
	}
	rates := stats.WindowRate(times, 0, horizon, window)
	tb := stats.NewTable(
		fmt.Sprintf("traffic preview: %s arrivals at %.4g jobs/s over %.0f s (%s × %d items)",
			proc.Name(), proc.Rate(), horizon, app, items),
		"window start", "jobs/s")
	for _, p := range rates.Points() {
		tb.AddRowf(p.T-window/2, p.V)
	}
	realised := float64(len(tr)) / horizon
	tb.AddNote("%d jobs (%d items); realised mean rate %.4g jobs/s vs configured %.4g", len(tr), totalItems, realised, proc.Rate())
	fmt.Print(tb.String())
	if csv {
		fmt.Printf("--- arrival rate ---\n%s", rates.CSV())
	}
	if out != "" {
		w := os.Stdout
		if out != "-" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := tr.Write(w); err != nil {
			return err
		}
		if out != "-" {
			fmt.Printf("recorded %d-event trace to %s\n", len(tr), out)
		}
	}
	return nil
}

func buildGrid(configPath, preset string, seed uint64, horizon float64) (*grid.Grid, error) {
	if configPath != "" {
		f, err := os.Open(configPath)
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
	r := rng.New(seed)
	switch preset {
	case "", "lan":
		return grid.Homogeneous(8, 1, grid.LANLink)
	case "multisite":
		return grid.MultiSite([]grid.Site{
			{Name: "edi", Nodes: 4, Speed: 1},
			{Name: "bcn", Nodes: 4, Speed: 2, Cores: 2},
			{Name: "pis", Nodes: 2, Speed: 1.5},
		}, grid.LANLink, grid.WANLink)
	case "loaded":
		nodes := make([]*grid.Node, 6)
		for i := range nodes {
			nodes[i] = &grid.Node{
				Name:  fmt.Sprintf("node%d", i),
				Speed: 1 + float64(i)*0.5,
				Cores: 1,
				Load: trace.Sum{
					trace.NewRandomWalk(r.Derive(uint64(i)), horizon+60, 1, 0.3, 0.05, 0.1),
					trace.Sine{Base: 0.1, Amp: 0.1, Period: 120},
				},
			}
		}
		return grid.NewGrid(grid.CampusLink, nodes...)
	default:
		return nil, fmt.Errorf("unknown preset %q (have lan, multisite, loaded)", preset)
	}
}
