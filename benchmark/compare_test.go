package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worsening, spread, bound float64
		want                     string
	}{
		{0.02, 0.01, 0.10, "within"},
		{-0.30, 0.01, 0.10, "within"}, // better is never worse
		{0.12, 0.03, 0.10, "worse"},
		{0.12, 0.20, 0.10, "unresolved"}, // beyond the bound, but inside the runs' own spread
		{0.02, 0.20, 0.10, "unresolved"},
		{0.50, 0.20, 0.10, "worse"}, // beyond bound and spread
		{0, 0, 0, "within"},
	} {
		if got := verdict(c.worsening, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%g, %g, %g) = %s, want %s", c.worsening, c.spread, c.bound, got, c.want)
		}
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func handMade(ips, p99 []float64, correct bool) resultFile {
	return resultFile{Workloads: map[string]*workloadResult{"w": {
		Correct: correct, Attempted: 10, Failed: 0,
		EndToEnd: map[string]*series{
			"items_per_s":    {Unit: "items/s", Values: ips},
			"sojourn_p99_us": {Unit: "us", Values: p99},
		},
		PerLayer: map[string]*series{"layer.ns": {Unit: "ns", Values: []float64{5, 5, 5}}},
	}}}
}

func TestCompareVerdictsOnHandMadeFiles(t *testing.T) {
	dir := t.TempDir()
	contract := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, contract, map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []contractMetric{
			{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.10},
			{Name: "sojourn_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
		},
		"per_layer": []contractMetric{{Name: "layer.ns", Unit: "ns", Better: "lower"}},
	})
	steady := []float64{100, 101, 99, 100, 100}
	base := filepath.Join(dir, "A.json")
	writeJSON(t, base, handMade(steady, steady, true))

	for _, c := range []struct {
		name      string
		b         resultFile
		wantWorse bool
		wantRows  []string
	}{
		{"same", handMade(steady, steady, true), false, []string{"items_per_s", "within"}},
		{"faster and lower latency", handMade([]float64{150, 151, 149}, []float64{50, 51, 49}, true), false, []string{"within"}},
		{"throughput down a fifth", handMade([]float64{80, 81, 79, 80, 80}, steady, true), true, []string{"worse"}},
		{"latency up a fifth", handMade(steady, []float64{120, 121, 119, 120, 120}, true), true, []string{"worse"}},
		{"too noisy to say", handMade([]float64{60, 100, 140, 80, 120}, steady, true), false, []string{"unresolved"}},
		{"wrong outputs", handMade(steady, steady, false), true, []string{"outputs wrong"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, "B.json")
			writeJSON(t, path, c.b)
			var out strings.Builder
			worse, err := compareFiles(&out, base, path, contract)
			if err != nil {
				t.Fatal(err)
			}
			if worse != c.wantWorse {
				t.Errorf("anyWorse = %v, want %v\n%s", worse, c.wantWorse, out.String())
			}
			for _, want := range append(c.wantRows, "per-layer") {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestCompareReportsAMissingFile(t *testing.T) {
	var out strings.Builder
	if _, err := compareFiles(&out, "no-such-A.json", "no-such-B.json", "no-such-contract.json"); err == nil {
		t.Error("missing files must be an error")
	}
}
