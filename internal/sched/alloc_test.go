package sched

import (
	"testing"

	"gridpipe/internal/rng"
)

// A branch-and-bound exhaustive search through a persistent Scratch —
// the T4 shape, 8 stages on 4 heterogeneous nodes — allocates nothing
// once the first search has grown the scratch buffers.
func TestExhaustiveSearchZeroAlloc(t *testing.T) {
	g, spec, _, _, err := buildEquiv(rng.New(42), equivCase{name: "chain-8x4", ns: 8, np: 4})
	if err != nil {
		t.Fatal(err)
	}
	var s Searcher = Exhaustive{}
	sc := NewScratch()
	search := func() {
		if _, _, err := SearchWith(sc, s, g, spec, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if a := testing.AllocsPerRun(20, search); a != 0 {
		t.Fatalf("exhaustive search through a warm scratch allocates %v per search, want 0", a)
	}
}
