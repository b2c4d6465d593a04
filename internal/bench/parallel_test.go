package bench

import (
	"strings"
	"testing"
)

// A parallel sweep must produce cell-identical tables to a sequential
// one: every experiment's randomness hangs off the seed argument
// only. Wall-clock columns (T4's search cost) are the single
// exception — they measure real time and differ even between two
// sequential runs — so the comparison masks them by header.
//
// Wall-clock experiments (F11) are taken out of the registry for the
// two sweeps: their cells differ between any two runs, so running them
// twice proves nothing, and their behaviour is pinned by their own
// tests (TestF11LiveRecovery).
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep ×2")
	}
	full := registry
	registry = map[string]Experiment{}
	for id, e := range full {
		if !e.WallClock {
			registry[id] = e
		}
	}
	defer func() { registry = full }()
	seq := RunAll(42, 1)
	par := RunAll(42, 4)
	if len(seq) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		id := seq[i].Experiment.ID
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s: seq err %v, par err %v", id, seq[i].Err, par[i].Err)
		}
		if par[i].Experiment.ID != id {
			t.Fatalf("order diverged at %d: %s vs %s", i, id, par[i].Experiment.ID)
		}
		sres, pres := seq[i].Result, par[i].Result
		if len(sres.Tables) != len(pres.Tables) || len(sres.Series) != len(pres.Series) {
			t.Fatalf("%s: table/series counts differ", id)
		}
		for ti, st := range sres.Tables {
			pt := pres.Tables[ti]
			if st.NumRows() != pt.NumRows() {
				t.Fatalf("%s table %d: row counts differ", id, ti)
			}
			headers := st.Headers()
			for r := 0; r < st.NumRows(); r++ {
				srow, prow := st.Row(r), pt.Row(r)
				for c := range srow {
					if c < len(headers) && strings.Contains(headers[c], "(ms)") {
						continue // wall-clock cell
					}
					if srow[c] != prow[c] {
						t.Errorf("%s table %d cell (%d,%d): sequential %q vs parallel %q",
							id, ti, r, c, srow[c], prow[c])
					}
				}
			}
		}
		for si, ss := range sres.Series {
			ps := pres.Series[si]
			if ss.CSV() != ps.CSV() {
				t.Errorf("%s series %q diverged between sequential and parallel runs", id, ss.Name)
			}
		}
	}
}
