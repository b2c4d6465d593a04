// Command benchmark is gridpipe's benchmark: seven named workloads
// driven through public functions only, end-to-end numbers from an
// untraced run and a per-layer budget from a traced one. See README.md
// for why each workload exists and how the numbers relate, and
// BENCHMARK.json at the repository root for the driver's contract.
//
//	go run ./benchmark -seed 1 -out result.json -spans spans.jsonl
//	go run ./benchmark -workload chain_light -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how often an untraced run repeats set-up; setup_s is the
// median, so one slow page-in does not read as a regression.
const setupReps = 3

func main() {
	var (
		one      = flag.String("workload", "", "run this one workload and print the driver's result line last")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "how long each run measures")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced end-to-end run, 1 = traced per-layer run")
		subset   = flag.String("workloads", "", "comma-separated subset to run (default all)")
		quick    = flag.Bool("quick", false, "smoke run at ~1/20 size; numbers are not comparable")
		runs     = flag.Int("runs", 1, "repeat every workload this many times, on seeds seed, seed+1, …")
		out      = flag.String("out", "", "write the JSON result here")
		spans    = flag.String("spans", "", "write the traced runs' spans here as JSON lines")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
		contract = flag.String("contract", "BENCHMARK.json", "with -compare: where the bounds are read from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *contract)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be positive"))
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, quick: *quick}
	if *quick {
		cfg.seconds = max(*seconds/20, 0.25)
	}
	var log *spanLog
	if *spans != "" {
		log = &spanLog{}
		cfg.spans = log
	}
	fmt.Printf("gridpipe benchmark: seed %d, %.3g s per run, GOMAXPROCS %d of %d CPUs, %s %s/%s\n",
		cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if *quick {
		fmt.Println("QUICK RUN: sizes are ~1/20; these numbers are not comparable with any other run")
	}

	ok := true
	var err error
	if *one != "" {
		ok, err = runForDriver(*one, cfg, *trace == 1)
	} else {
		ok, err = runAll(strings.Split(*subset, ","), cfg, *runs, *out)
	}
	if err == nil && log != nil {
		err = log.write(*spans)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOnce sets a workload up and measures it once.
func runOnce(name string, cfg runCfg) (*measurement, error) {
	m := newMeasurement()
	reps := setupReps
	if cfg.traced {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var w runner
	var setups []float64
	for i := 0; i < reps; i++ {
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC() // set-up garbage is collected before timing, not during
	m.set("setup_s", median(setups))
	m.note("setup_s", fmt.Sprintf("median of %d set-ups: inputs + warm-up pass, build excluded", reps))
	if err := w.measure(cfg, m); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// printMetrics lists every metric of the table by name with its unit.
func printMetrics(name string, defs []metricDef, m *measurement) {
	for _, d := range defs {
		fmt.Printf("  %-15s %-36s %16.6g %-8s %s\n", name, d.Name, m.Values[d.Name], d.Unit, m.Notes[d.Name])
	}
	fmt.Printf("  %-15s attempted %d, failed %d, correct %v\n", name, m.Attempted, m.Failed, m.correct())
}

// driverResult is the last line of a -workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runForDriver is the driver's entry: one workload, one run, the
// metrics of one table, and the result object as the last line.
func runForDriver(name string, cfg runCfg, traced bool) (bool, error) {
	cfg.traced = traced
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m, err := runOnce(name, cfg)
	if err != nil {
		return false, err
	}
	printMetrics(name, defs, m)
	res := driverResult{Correct: m.correct(), Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v, ok := m.Values[d.Name]
		if !ok && !traced {
			return false, fmt.Errorf("%s did not report %s", name, d.Name)
		}
		res.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// resultFile is what -out writes and -compare reads: every value of
// every run, so medians and spreads can be taken later.
type resultFile struct {
	GoVersion  string                     `json:"go_version"`
	GOOS       string                     `json:"goos"`
	GOARCH     string                     `json:"goarch"`
	CPUs       int                        `json:"cpus"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	Quick      bool                       `json:"quick_not_comparable,omitempty"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func (r *workloadResult) record(into map[string]*series, defs []metricDef, m *measurement) {
	for _, d := range defs {
		s := into[d.Name]
		if s == nil {
			s = &series{Unit: d.Unit}
			into[d.Name] = s
		}
		s.Values = append(s.Values, m.Values[d.Name])
	}
	r.Attempted += m.Attempted
	r.Failed += m.Failed
	r.Correct = r.Correct && m.correct()
}

// runAll is the one command that prints everything: each selected
// workload untraced (end-to-end numbers), then traced (per-layer
// numbers), repeated runs times on consecutive seeds.
func runAll(names []string, cfg runCfg, runs int, out string) (bool, error) {
	if len(names) == 1 && names[0] == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	for _, name := range names { // a typo should fail before the first ten-second run, not after it
		if _, err := newWorkload(name); err != nil {
			return false, err
		}
	}
	file := resultFile{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs, Quick: cfg.quick,
		Workloads: map[string]*workloadResult{},
	}
	ok := true
	for _, name := range names {
		res := &workloadResult{Correct: true, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		file.Workloads[name] = res
		for run := 0; run < runs; run++ {
			c := cfg
			c.seed = cfg.seed + uint64(run)
			for _, traced := range []bool{false, true} {
				c.traced = traced
				m, err := runOnce(name, c)
				if err != nil {
					return false, err
				}
				if traced {
					fmt.Printf("%s, seed %d, traced run: per-layer metrics\n", name, c.seed)
					printMetrics(name, perLayer, m)
					res.record(res.PerLayer, perLayer, m)
				} else {
					fmt.Printf("%s, seed %d, untraced run: end-to-end metrics\n", name, c.seed)
					printMetrics(name, endToEnd, m)
					res.record(res.EndToEnd, endToEnd, m)
				}
			}
		}
		ok = ok && res.Correct
	}
	if out == "" {
		return ok, nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return false, fmt.Errorf("write result: %w", err)
	}
	return ok, nil
}
