package sched

// Equivalence property: LocalSearch — whose climbs consult the
// scratch's table of assignments already rated — must return EXACTLY
// what a plain hill-climb that sends every candidate to the analytic
// model returns: same mapping, bit-identical prediction. The table is
// a work optimisation, never a result change. The reference below is a
// test-only evaluator written from the strategy's definition (greedy
// start, first-improvement single-stage moves, seeded restarts), not
// retired production code.

import (
	"fmt"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

// refLocalSearch is the plain climb: it rates every candidate move
// with model.Predict and reports how many ratings that took.
func refLocalSearch(l LocalSearch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, int, error) {
	np := g.NumNodes()
	var ids []grid.NodeID
	for n := 0; n < np; n++ {
		if avail == nil || avail[n] {
			ids = append(ids, grid.NodeID(n))
		}
	}
	restarts, maxIters := l.Restarts, l.MaxIters
	if restarts <= 0 {
		restarts = 3
	}
	if maxIters <= 0 {
		maxIters = 200
	}
	evals := 0
	rate := func(assign []grid.NodeID) (model.Prediction, error) {
		evals++
		return model.Predict(g, spec, model.FromNodes(assign...), loads)
	}
	climb := func(assign []grid.NodeID) (model.Prediction, error) {
		pred, err := rate(assign)
		if err != nil {
			return pred, err
		}
		for iter := 0; iter < maxIters; iter++ {
			improved := false
			for si := range assign {
				for n := 0; n < np; n++ {
					if grid.NodeID(n) == assign[si] || (avail != nil && !avail[n]) {
						continue
					}
					orig := assign[si]
					assign[si] = grid.NodeID(n)
					p, err := rate(assign)
					if err != nil {
						return p, err
					}
					if p.Throughput > pred.Throughput*(1+1e-12) {
						pred, improved = p, true
					} else {
						assign[si] = orig
					}
				}
			}
			if !improved {
				break
			}
		}
		return pred, nil
	}

	start, _, err := Greedy{}.SearchAvail(g, spec, loads, avail)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, 0, err
	}
	cur := make([]grid.NodeID, spec.NumStages())
	for i, row := range start.Assign {
		cur[i] = row[0]
	}
	bestP, err := climb(cur)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, 0, err
	}
	best := append([]grid.NodeID(nil), cur...)
	r := rng.New(l.Seed)
	for rs := 0; rs < restarts; rs++ {
		for i := range cur {
			cur[i] = ids[r.Intn(len(ids))]
		}
		p, err := climb(cur)
		if err != nil {
			return model.Mapping{}, model.Prediction{}, 0, err
		}
		if p.Throughput > bestP.Throughput {
			bestP = p
			copy(best, cur)
		}
	}
	return model.FromNodes(best...), bestP, evals, nil
}

// liveRatings counts the assignments the scratch's table holds for the
// search that just ran.
func liveRatings(sc *Scratch) int {
	live := 0
	for _, e := range sc.rated.stamp {
		if e == sc.rated.epoch {
			live++
		}
	}
	return live
}

func TestLocalSearchEquivalence(t *testing.T) {
	cases := append(equivCases(),
		// Three stages on a three-node lease: the cluster rung's shape,
		// 27 assignments walked by four climbs.
		equivCase{name: "chain-3x3", ns: 3, np: 3},
		// 24^12 assignments, and more distinct candidates on the walk
		// than the table has slots: ratings are overwritten mid-search.
		equivCase{name: "chain-12x24-masked", ns: 12, np: 24, mask: true},
	)
	sc := NewScratch() // one scratch across every case: epochs, and stage counts that change under the table
	for seed := uint64(1); seed <= 5; seed++ {
		r := rng.New(seed)
		for _, c := range cases {
			label := fmt.Sprintf("seed%d/%s", seed, c.name)
			g, spec, loads, avail, err := buildEquiv(r, c)
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			l := LocalSearch{Seed: seed}
			wantM, wantP, evals, err := refLocalSearch(l, g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}

			gotM, gotP, err := SearchWith(sc, l, g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: SearchWith: %v", label, err)
			}
			if !gotM.Equal(wantM) {
				t.Errorf("%s: SearchWith mapping %s, want %s", label, gotM, wantM)
			}
			samePrediction(t, label+"/scratch", gotP, wantP)
			if gotP.Latency != wantP.Latency {
				t.Errorf("%s: latency %v, want %v", label, gotP.Latency, wantP.Latency)
			}

			// The table must be doing its job: it holds each distinct
			// assignment once, which is fewer than the plain climb's
			// ratings — or the walk outgrew it.
			live := liveRatings(sc)
			switch c.name {
			case "chain-3x3":
				if live > 27 || live >= evals {
					t.Errorf("%s: %d distinct ratings held against %d plain ratings of a 27-assignment space", label, live, evals)
				}
			case "chain-12x24-masked":
				if evals <= ratedSlots {
					t.Errorf("%s: the plain climb rated only %d candidates; the case must outgrow the %d-slot table", label, evals, ratedSlots)
				}
			}

			pm, pp, err := l.SearchAvail(g, spec, loads, avail)
			if err != nil {
				t.Fatalf("%s: SearchAvail: %v", label, err)
			}
			if !pm.Equal(wantM) {
				t.Errorf("%s: SearchAvail mapping %s, want %s", label, pm, wantM)
			}
			samePrediction(t, label+"/pooled", pp, wantP)
		}
	}
}

// A remembered rating must be verified against the stored assignment:
// two assignments sharing a slot may not read each other's throughput.
func TestRatedTableVerifiesAssignment(t *testing.T) {
	var tb ratedTable
	tb.reset(2)
	a := []grid.NodeID{0, 1}
	slot, _, ok := tb.lookup(a)
	if ok {
		t.Fatal("empty table reports a rating")
	}
	tb.store(slot, a, 3.5)
	if _, tp, ok := tb.lookup(a); !ok || tp != 3.5 {
		t.Fatalf("stored rating reads (%v, %v), want (3.5, true)", tp, ok)
	}
	// Force another assignment into the same slot: it must miss, and
	// storing it evicts the first.
	b := []grid.NodeID{1, 0}
	copy(tb.keys[slot*2:], b)
	if _, _, ok := tb.lookup(a); ok {
		t.Fatal("lookup trusted a slot holding a different assignment")
	}
	tb.reset(2)
	if _, _, ok := tb.lookup(b); ok {
		t.Fatal("a rating survived reset")
	}
}
