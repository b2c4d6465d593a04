package bench

import (
	"strconv"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

// tableCol extracts column col of the first table keyed by the policy
// name in column 0.
func tableCol(t *testing.T, tb *stats.Table, col int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for i := 0; i < tb.NumRows(); i++ {
		r := tb.Row(i)
		out[r[0]] = r[col]
	}
	return out
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// TestF9AdaptiveBeatsStatic pins the experiment's acceptance
// criterion: under a mid-run crash, the fault-aware adaptive policies
// complete at least as many items as the static mapping, and the
// fault remap happens at all.
func TestF9AdaptiveBeatsStatic(t *testing.T) {
	res := runF9(42)
	tb := res.Tables[0]
	if tb.NumRows() != len(churnPolicies) {
		t.Fatalf("F9 rows = %d, want %d", tb.NumRows(), len(churnPolicies))
	}
	done := tableCol(t, tb, 1)
	faultRemaps := tableCol(t, tb, 5)
	if cellFloat(t, done["reactive"]) < cellFloat(t, done["static"]) {
		t.Fatalf("reactive done %s < static done %s under crash", done["reactive"], done["static"])
	}
	if cellFloat(t, done["predictive"]) < cellFloat(t, done["static"]) {
		t.Fatalf("predictive done %s < static done %s under crash", done["predictive"], done["static"])
	}
	if cellFloat(t, faultRemaps["reactive"]) == 0 {
		t.Fatal("reactive policy recorded no fault remap at the crash")
	}
	if cellFloat(t, faultRemaps["static"]) != 0 {
		t.Fatal("static policy must not remap")
	}
}

// TestF10AdaptiveUsesReserves: the elastic-join experiment must fold a
// joined reserve into the adaptive mapping and beat static.
func TestF10AdaptiveUsesReserves(t *testing.T) {
	res := runF10(42)
	tb := res.Tables[0]
	done := tableCol(t, tb, 1)
	reserves := tableCol(t, tb, 5)
	if cellFloat(t, done["reactive"]) < cellFloat(t, done["static"]) {
		t.Fatalf("reactive done %s < static done %s with joinable reserves", done["reactive"], done["static"])
	}
	if reserves["reactive"] != "true" {
		t.Fatal("reactive final mapping never used a joined reserve node")
	}
	if reserves["static"] != "false" {
		t.Fatal("static mapping cannot reach the reserves — table disagrees")
	}
}

// TestChurnRunLedger: the scenario runner's churn wiring reports a
// balanced ledger on a fixed-item run.
func TestChurnRunLedger(t *testing.T) {
	app := workload.Balanced(3, 0.1, 1e4)
	g := spikeGrid(4, -1, 0, 0)
	m0, _, err := workload.Deploy(g, app.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := grid.NewChurnSchedule(grid.Outage("node1", 5, 12)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetChurn(churn); err != nil {
		t.Fatal(err)
	}
	out, err := workload.RunSim(g, app, m0, workload.SimOptions{
		Policy: adaptive.PolicyStatic, Seed: 7, Items: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Done+out.Exec.Lost() != 200 {
		t.Fatalf("done %d + lost %d != 200", out.Done, out.Exec.Lost())
	}
	if out.Exec.InFlight() != 0 {
		t.Fatalf("inFlight = %d at end", out.Exec.InFlight())
	}
}
