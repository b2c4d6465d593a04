package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contractFile is the part of BENCHMARK.json -compare reads.
type contractFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges B against A for one metric on one workload. worsening
// is how much worse B's median is, as a share of A's; spread is the
// wider of the two sets' quartile distances over their medians.
//   - worse: B is worse by more than the bound, and by more than the
//     spread, so the runs themselves cannot explain it;
//   - unresolved: the spread is wider than the bound, so these runs
//     cannot show the metric held;
//   - within: anything else.
func verdict(worsening, spread, bound float64) string {
	switch {
	case worsening > bound && worsening > spread:
		return "worse"
	case spread > bound:
		return "unresolved"
	}
	return "within"
}

// compareFiles prints, per (metric, workload), both medians, the ratio
// with its base, the bound and the verdict, and reports whether any
// end-to-end row is worse. Per-layer rows carry no bound and no
// verdict.
func compareFiles(w io.Writer, pathA, pathB, contractPath string) (anyWorse bool, err error) {
	var a, b resultFile
	var c contractFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := readJSON(contractPath, &c); err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	if a.Quick || b.Quick {
		fmt.Fprintln(w, "warning: a -quick result is not comparable with anything")
	}
	fmt.Fprintf(w, "%-15s %-34s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "spread", "bound", "verdict")
	for _, wl := range c.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, md := range c.EndToEnd {
			sa, sb := ra.EndToEnd[md.Name], rb.EndToEnd[md.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.Values), median(sb.Values)
			if ma == 0 {
				fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %9s %8s %8.3f  unresolved (base is 0)\n", wl.Name, md.Name, ma, mb, "-", "-", md.Bound)
				continue
			}
			worsening := (mb - ma) / ma
			if md.Better == "higher" {
				worsening = -worsening
			}
			spread := max(iqrShare(sa.Values), iqrShare(sb.Values))
			v := verdict(worsening, spread, md.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %9.4f %8.3f %8.3f  %s\n", wl.Name, md.Name, ma, mb, mb/ma, spread, md.Bound, v)
		}
		if !ra.Correct || !rb.Correct {
			anyWorse = true
			fmt.Fprintf(w, "%-15s outputs wrong: A failed %d of %d, B failed %d of %d  worse\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
		for _, md := range c.PerLayer {
			sa, sb := ra.PerLayer[md.Name], rb.PerLayer[md.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.Values), median(sb.Values)
			if ma == 0 && mb == 0 {
				continue // not exercised by this workload
			}
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %9s %8.3f %8s  per-layer\n", wl.Name, md.Name, ma, mb, ratio,
				max(iqrShare(sa.Values), iqrShare(sb.Values)), "-")
		}
	}
	return anyWorse, nil
}
