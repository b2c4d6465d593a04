// Command pipebench regenerates the tables and figures of the
// reconstructed evaluation suite (see DESIGN.md's experiment index).
// Performance numbers come from `go run ./benchmark`, not from here.
//
// Usage:
//
//	pipebench -list
//	pipebench -exp F1 [-seed 42] [-csv] [-json] [-outdir DIR]
//	pipebench -all [-seed 42] [-workers N] [-json]
//
// -all fans the experiments across -workers goroutines (default one per
// CPU); every experiment seeds its own RNG streams, so the tables equal
// a sequential sweep's and print in ID order (wall-clock experiments
// such as F11 run alone after the pool drains). -csv also dumps every
// figure series as CSV for offline plotting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"gridpipe/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("exp", "", "experiment id to run (e.g. F1, T2)")
		all     = flag.Bool("all", false, "run every experiment")
		seed    = flag.Uint64("seed", 42, "random seed")
		csv     = flag.Bool("csv", false, "also print figure series as CSV")
		jsonOut = flag.Bool("json", false, "print experiment results as JSON (one document per experiment)")
		outdir  = flag.String("outdir", "", "write every table and series as CSV files into this directory")
		workers = flag.Int("workers", runtime.NumCPU(), "worker pool size for -all (1 = sequential)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: memprofile: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		listExperiments(os.Stdout)
	case *all:
		failed := false
		for _, out := range bench.RunAll(*seed, *workers) {
			err := out.Err
			if err == nil {
				err = emitOne(out.Result, *csv, *jsonOut, *outdir)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", out.Experiment.ID, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	case *exp != "":
		e, err := bench.ByID(*exp)
		if err != nil {
			// Most often a typo: show the menu, not an opaque failure.
			fmt.Fprintf(os.Stderr, "pipebench: unknown experiment %q; valid experiment IDs:\n", *exp)
			listExperiments(os.Stderr)
			os.Exit(1)
		}
		res, err := e.Run(*seed)
		if err == nil {
			err = emitOne(res, *csv, *jsonOut, *outdir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// listExperiments prints the experiment menu, one "ID Title" per line.
func listExperiments(w io.Writer) {
	for _, e := range bench.All() {
		fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
	}
}

// emitOne prints (and optionally exports) one experiment result. With
// jsonOut the result is one JSON document (tables as cell arrays,
// series as [t, v] point lists) instead of the aligned text tables —
// with -all, one document per experiment in ID order.
func emitOne(res *bench.Result, csv, jsonOut bool, outdir string) error {
	if jsonOut {
		data, err := json.MarshalIndent(res.Doc(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(res.String())
		if csv {
			for _, s := range res.Series {
				fmt.Printf("\n--- series %s ---\n%s", s.Name, s.CSV())
			}
		}
	}
	if outdir != "" {
		if err := export(res, outdir); err != nil {
			return err
		}
	}
	if !jsonOut {
		fmt.Println()
	}
	return nil
}

// export writes <id>_table<i>.csv and <id>_<series>.csv into dir.
func export(res *bench.Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", res.ID, i))
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	for _, s := range res.Series {
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
				return r
			default:
				return '_'
			}
		}, s.Name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", res.ID, name))
		if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
