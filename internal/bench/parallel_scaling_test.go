package bench

import (
	"runtime"
	"testing"
)

// TestParallelScalingDigests runs a trimmed sweep and leans on
// ParallelScaling's built-in cross-check: every point's completion
// digest must equal the single-partition golden or the sweep errors.
func TestParallelScalingDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep of a 10k-node workload")
	}
	points, err := ParallelScaling(7, []int{1, 2, 4, 16}, []int{1, runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 || points[0].Parts != 1 || points[0].Procs != 1 {
		t.Fatalf("golden point missing or misplaced: %+v", points)
	}
	want := points[0].Events
	for _, p := range points {
		if p.Events != want {
			t.Fatalf("parts=%d procs=%d fired %d events, golden fired %d",
				p.Parts, p.Procs, p.Events, want)
		}
		if p.EventsPerSec <= 0 || p.WallSeconds <= 0 {
			t.Fatalf("degenerate measurement: %+v", p)
		}
	}
}
