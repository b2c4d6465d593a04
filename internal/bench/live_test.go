package bench

import (
	"strings"
	"testing"
)

// TestF11LiveRecovery pins the experiment's acceptance criterion: on
// the live goroutine runtime, under background load injected onto the
// bottleneck stage's resource, the adaptive policies resize worker
// pools and sustain measurably higher throughput than the static
// baseline. Run at a reduced stream length to keep the suite quick;
// the thresholds are generous because this is a wall-clock measurement
// (the full-size run is `pipebench -exp F11`).
func TestF11LiveRecovery(t *testing.T) {
	res := runF11Sized(900)
	tb := res.Tables[0]
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", tb.NumRows())
	}
	// Rows: static, reactive, predictive. Columns: policy, items,
	// before, under, recovery, resizes, workers.
	staticUnder := cell(t, tb, 0, 3)
	if staticUnder <= 0 {
		t.Fatalf("static under-load throughput = %v", staticUnder)
	}
	if resizes := cell(t, tb, 0, 5); resizes != 0 {
		t.Fatalf("static policy resized %v times", resizes)
	}
	for r := 1; r < 3; r++ {
		name := tb.Row(r)[0]
		if resizes := cell(t, tb, r, 5); resizes < 1 {
			t.Errorf("%s never resized", name)
			continue
		}
		if under := cell(t, tb, r, 3); under < 1.15*staticUnder {
			t.Errorf("%s under-load throughput %v not measurably above static %v",
				name, under, staticUnder)
		}
		// The final worker vector must have grown beyond the deployed
		// half-budget of 8.
		workers := tb.Row(r)[6]
		if !strings.HasPrefix(workers, "[") {
			t.Errorf("%s worker vector not rendered: %q", name, workers)
		}
	}
}
