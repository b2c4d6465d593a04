package bench

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "F1", "F10", "F11", "F12", "F13", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "T1", "T2", "T3", "T4", "T5"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("F1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("ZZ"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// runs42 holds each experiment's run at seed 42 by ID. A run is a
// pure function of the seed, so the shape tests and the tables golden
// share one run per experiment; tests only read a Result.
var runs42 sync.Map

// run42 returns e's run at seed 42, running it on first use.
func run42(e Experiment) *Result {
	if res, ok := runs42.Load(e.ID); ok {
		return res.(*Result)
	}
	res := e.Run(42)
	runs42.Store(e.ID, res)
	return res
}

// runExp runs one experiment and does generic sanity checks.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res := run42(e)
	if res.ID != id {
		t.Fatalf("result id %s, want %s", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatal("no tables produced")
	}
	out := res.String()
	if !strings.Contains(out, id) {
		t.Fatal("render does not mention the experiment id")
	}
	return res
}

// cell parses a float out of a table cell.
func cell(t *testing.T, tb interface{ Row(int) []string }, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Row(row)[col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number", row, col, tb.Row(row)[col])
	}
	return v
}

func TestF1Shape(t *testing.T) {
	res := runExp(t, "F1")
	tb := res.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Row 0 is static. After-spike throughput of every adaptive policy
	// must beat static's.
	staticAfter := cell(t, tb, 0, 3)
	for r := 1; r < 4; r++ {
		if after := cell(t, tb, r, 3); after <= staticAfter*1.2 {
			t.Errorf("%s after-spike %v not clearly above static %v", tb.Row(r)[0], after, staticAfter)
		}
		if remaps := cell(t, tb, r, 4); remaps < 1 {
			t.Errorf("%s never remapped", tb.Row(r)[0])
		}
	}
	if remaps := cell(t, tb, 0, 4); remaps != 0 {
		t.Error("static remapped")
	}
}

func TestF8Shape(t *testing.T) {
	res := runExp(t, "F8")
	tb := res.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Rows: linear-static, linear-reactive, diamond-static,
	// diamond-reactive. Columns: topology, policy, done, before,
	// after, fill latency, remaps, migrated.
	linStatic, linReact, diaStatic, diaReact := 0, 1, 2, 3
	// Equal pre-spike throughput across topologies (equal total work).
	lb, db := cell(t, tb, linStatic, 3), cell(t, tb, diaStatic, 3)
	if lb <= 0 || db <= 0 || db < lb*0.9 || db > lb*1.1 {
		t.Errorf("pre-spike throughput: linear %v vs diamond %v, want equal", lb, db)
	}
	// The diamond's branches overlap: lower fill latency.
	if lf, df := cell(t, tb, linStatic, 5), cell(t, tb, diaStatic, 5); df >= lf {
		t.Errorf("fill latency: diamond %v not below linear %v", df, lf)
	}
	// The adaptive controller remaps the DAG and recovers the spike.
	for _, r := range []int{linReact, diaReact} {
		if remaps := cell(t, tb, r, 6); remaps < 1 {
			t.Errorf("row %d: reactive never remapped", r)
		}
		staticAfter := cell(t, tb, r-1, 4)
		if after := cell(t, tb, r, 4); after <= staticAfter*1.5 {
			t.Errorf("row %d: after-spike %v not clearly above static %v", r, after, staticAfter)
		}
	}
}

func TestF2Shape(t *testing.T) {
	res := runExp(t, "F2")
	tb := res.Tables[0]
	if tb.NumRows() != 7 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Speedup grows with Np then saturates ≤ stage count (+ slack for
	// load variance); adaptive ≥ static on the largest grid.
	lastStatic := cell(t, tb, tb.NumRows()-1, 3)
	lastAdaptive := cell(t, tb, tb.NumRows()-1, 4)
	if lastStatic > 8 {
		t.Errorf("static speedup %v exceeds plausible bound", lastStatic)
	}
	if lastAdaptive < lastStatic*0.9 {
		t.Errorf("adaptive speedup %v below static %v", lastAdaptive, lastStatic)
	}
	firstStatic := cell(t, tb, 0, 3)
	if firstStatic < 0.99 || firstStatic > 1.01 {
		t.Errorf("Np=1 static speedup = %v, want 1", firstStatic)
	}
}

func TestF3Shape(t *testing.T) {
	res := runExp(t, "F3")
	tb := res.Tables[0]
	// Zero spike: ratio ≈ 1. Largest spike: ratio clearly > 1.
	first := cell(t, tb, 0, 3)
	last := cell(t, tb, tb.NumRows()-1, 3)
	if first < 0.9 || first > 1.1 {
		t.Errorf("no-spike benefit ratio = %v, want ~1", first)
	}
	if last < 1.3 {
		t.Errorf("max-spike benefit ratio = %v, want > 1.3", last)
	}
}

func TestF4Shape(t *testing.T) {
	res := runExp(t, "F4")
	tb := res.Tables[0]
	// Speedup at k=3 should be near 3 (align dominates), and the
	// model's relative error should be modest everywhere.
	if sp := cell(t, tb, 2, 4); sp < 2.2 {
		t.Errorf("3-replica speedup = %v, want ~3", sp)
	}
	for r := 0; r < tb.NumRows(); r++ {
		if re := cell(t, tb, r, 3); re > 0.35 {
			t.Errorf("row %d rel err %v too large", r, re)
		}
	}
	// Saturation: last speedup close to previous (diminishing returns).
	k5 := cell(t, tb, 4, 4)
	k6 := cell(t, tb, 5, 4)
	if k6 > k5*1.25 {
		t.Errorf("no saturation: k5=%v k6=%v", k5, k6)
	}
}

func TestF5Shape(t *testing.T) {
	res := runExp(t, "F5")
	tb := res.Tables[0]
	// Benefit should never be clearly below 1, and the heterogeneous
	// end must clearly beat the homogeneous end (a blind mapping wastes
	// more of the fast nodes as the ratio grows).
	first := cell(t, tb, 0, 3)
	last := cell(t, tb, tb.NumRows()-1, 3)
	if first < 0.85 {
		t.Errorf("homogeneous benefit = %v, adaptation hurt", first)
	}
	if last < first {
		t.Errorf("benefit did not grow with heterogeneity: %v -> %v", first, last)
	}
	if last < 1.5 {
		t.Errorf("benefit at ratio 16 = %v, want > 1.5", last)
	}
}

func TestF6Shape(t *testing.T) {
	res := runExp(t, "F6")
	tb := res.Tables[0]
	for r := 0; r < tb.NumRows(); r++ {
		if eff := cell(t, tb, r, 3); eff < 0.7 || eff > 1.05 {
			t.Errorf("row %d efficiency %v outside [0.7, 1.05]", r, eff)
		}
	}
	// Fill latency grows with stage count.
	if l0, l4 := cell(t, tb, 0, 4), cell(t, tb, tb.NumRows()-1, 4); l4 <= l0 {
		t.Errorf("fill latency did not grow: %v -> %v", l0, l4)
	}
}

func TestT1Shape(t *testing.T) {
	res := runExp(t, "T1")
	tb := res.Tables[0]
	vals := map[string]string{}
	for r := 0; r < tb.NumRows(); r++ {
		vals[tb.Row(r)[0]] = tb.Row(r)[1]
	}
	if vals["redone work (ref-s)"] != "0" {
		t.Errorf("drain-safe redone work = %s, want 0", vals["redone work (ref-s)"])
	}
	det, err := strconv.ParseFloat(vals["detection latency (s)"], 64)
	if err != nil || det < 0 || det > 30 {
		t.Errorf("detection latency = %s, want small positive", vals["detection latency (s)"])
	}
}

func TestT2Shape(t *testing.T) {
	res := runExp(t, "T2")
	if len(res.Tables) != 2 {
		t.Fatalf("T2 should have main + MVA tables")
	}
	tb := res.Tables[0]
	agree := 0
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Row(r)[3] == "true" {
			agree++
		}
		if re := cell(t, tb, r, 6); re > 0.15 {
			t.Errorf("row %d model rel err %v > 15%%", r, re)
		}
	}
	if agree < tb.NumRows()-1 {
		t.Errorf("model agreed on only %d of %d sets", agree, tb.NumRows())
	}
	// The simulator runs a closed line with unbounded queues, so exact
	// MVA must lie inside its 95% confidence interval, and no closed
	// line beats its bottleneck.
	ct := res.Tables[1]
	for r := 0; r < ct.NumRows(); r++ {
		exact := cell(t, ct, r, 2)
		bound := cell(t, ct, r, 3)
		mean := cell(t, ct, r, 4)
		half := cell(t, ct, r, 5)
		if exact > bound+1e-9 {
			t.Errorf("MVA row %d: exact %v exceeds analytic bound %v", r, exact, bound)
		}
		if math.Abs(mean-exact) > half {
			t.Errorf("MVA row %d: sim mean %v ± %v misses MVA %v", r, mean, half, exact)
		}
	}
}

func TestT3Shape(t *testing.T) {
	res := runExp(t, "T3")
	tb := res.Tables[0]
	if tb.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7 forecasters", tb.NumRows())
	}
	// NWS property: the adaptive row is within 3× of the column best
	// for every signal class.
	adaptiveRow := -1
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Row(r)[0] == "adaptive" {
			adaptiveRow = r
		}
	}
	if adaptiveRow < 0 {
		t.Fatal("no adaptive row")
	}
	for col := 1; col <= 6; col++ {
		best := cell(t, tb, 0, col)
		for r := 1; r < tb.NumRows(); r++ {
			if v := cell(t, tb, r, col); v < best {
				best = v
			}
		}
		if v := cell(t, tb, adaptiveRow, col); v > 3*best+1e-3 {
			t.Errorf("column %d: adaptive MSE %v vs best %v", col, v, best)
		}
	}
}

func TestT4Shape(t *testing.T) {
	res := runExp(t, "T4")
	tb := res.Tables[0]
	if tb.NumRows() < 12 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		q := cell(t, tb, r, 3)
		if q <= 0 || q > 1.0001 {
			t.Errorf("row %d quality %v outside (0, 1]", r, q)
		}
		// Local search should always be within 10% of the best found.
		if tb.Row(r)[2] == "local-search" && q < 0.9 {
			t.Errorf("local search quality %v < 0.9", q)
		}
		// Exhaustive is exact by construction.
		if tb.Row(r)[2] == "exhaustive" && q < 0.9999 {
			t.Errorf("exhaustive quality %v != 1", q)
		}
	}
}

func TestA1Shape(t *testing.T) {
	res := runExp(t, "A1")
	tb := res.Tables[0]
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	var periodicSearches, reactiveSearches float64
	for r := 0; r < tb.NumRows(); r++ {
		switch tb.Row(r)[0] {
		case "periodic":
			periodicSearches = cell(t, tb, r, 2)
		case "reactive":
			reactiveSearches = cell(t, tb, r, 2)
		}
		if done := cell(t, tb, r, 1); done <= 0 {
			t.Errorf("%s did no work", tb.Row(r)[0])
		}
	}
	if reactiveSearches >= periodicSearches {
		t.Errorf("reactive searched %v times vs periodic %v — trigger not selective",
			reactiveSearches, periodicSearches)
	}
}

func TestA2Shape(t *testing.T) {
	res := runExp(t, "A2")
	tb := res.Tables[0]
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Row(0)[0] != "drain-safe" || tb.Row(1)[0] != "kill-restart" {
		t.Fatalf("unexpected protocol rows: %v %v", tb.Row(0)[0], tb.Row(1)[0])
	}
	if redone := cell(t, tb, 0, 4); redone != 0 {
		t.Errorf("drain-safe redone = %v", redone)
	}
	drainDone := cell(t, tb, 0, 1)
	killDone := cell(t, tb, 1, 1)
	if killDone > drainDone*1.05 {
		t.Errorf("kill-restart (%v) should not beat drain-safe (%v)", killDone, drainDone)
	}
}

func TestF7Shape(t *testing.T) {
	res := runExp(t, "F7")
	tb := res.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	staticDuring := cell(t, tb, 0, 2)
	if staticDuring > 0.5 {
		t.Errorf("static throughput during outage = %v, should collapse", staticDuring)
	}
	for r := 1; r < 4; r++ {
		during := cell(t, tb, r, 2)
		if during < 10*staticDuring {
			t.Errorf("%s during-outage throughput %v not clearly above static %v",
				tb.Row(r)[0], during, staticDuring)
		}
		if remaps := cell(t, tb, r, 4); remaps < 1 {
			t.Errorf("%s never evacuated", tb.Row(r)[0])
		}
	}
}

func TestT5Shape(t *testing.T) {
	res := runExp(t, "T5")
	tb := res.Tables[0]
	if tb.NumRows() != 6 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		cv := cell(t, tb, r, 0)
		pred := cell(t, tb, r, 3)
		meas := cell(t, tb, r, 4)
		relErr := cell(t, tb, r, 5)
		if cv == 1 && relErr > 0.1 {
			t.Errorf("row %d: M/M/1 rel err %v > 10%%", r, relErr)
		}
		if cv == 0 && meas > pred*1.05 {
			t.Errorf("row %d: M/D/1 prediction %v is not an upper bound of %v", r, pred, meas)
		}
	}
	// Latency grows with rho in both regimes.
	if cell(t, tb, 2, 4) <= cell(t, tb, 0, 4) {
		t.Error("cv=0 measured latency did not grow with rho")
	}
	if cell(t, tb, 5, 4) <= cell(t, tb, 3, 4) {
		t.Error("cv=1 measured latency did not grow with rho")
	}
}

func TestA3Shape(t *testing.T) {
	res := runExp(t, "A3")
	tb := res.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Remaps fall monotonically with gain.
	prev := cell(t, tb, 0, 2)
	for r := 1; r < tb.NumRows(); r++ {
		cur := cell(t, tb, r, 2)
		if cur >= prev {
			t.Errorf("remaps did not fall with gain: %v -> %v", prev, cur)
		}
		prev = cur
	}
	// The default gain (1.15) must not lose to zero hysteresis.
	if cell(t, tb, 1, 1) < cell(t, tb, 0, 1)*0.98 {
		t.Errorf("default hysteresis (%v done) clearly worse than churning (%v done)",
			cell(t, tb, 1, 1), cell(t, tb, 0, 1))
	}
}
