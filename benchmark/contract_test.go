package main

import (
	"os"
	"regexp"
	"testing"
)

// fullContract is BENCHMARK.json with every key the driver reads.
type fullContract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// The program prints its metrics from the tables in metrics.go and the
// driver expects the ones in BENCHMARK.json: they must be the same
// tables, and within the limits the driver's contract sets.
func TestContractMatchesTables(t *testing.T) {
	var c fullContract
	if err := readJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Command) != 2 || c.Command[0] != "bash" || c.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %q", c.Command)
	}
	if _, err := os.Stat("run.sh"); err != nil {
		t.Errorf("the command's script: %v", err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %q, want [benchmark]", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's character set", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		unique(w.Name)
		if got := c.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %+v", i, got, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}

	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's character set", d.Name, d.Unit)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better(d.Higher) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
			if bounded && (g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %g in BENCHMARK.json, %g in the table; must be in (0, 0.25]", d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	var setup metricDef
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Higher {
		t.Fatal("the contract requires a setup_s metric in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s, which must have the largest", d.Name)
		}
	}
}
