package bench

import "testing"

func TestSpikeGridShape(t *testing.T) {
	g, err := spikeGrid(4, 2, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	victim := g.Node(2)
	if victim.Load == nil || victim.Load.At(5) != 0 || victim.Load.At(15) != 0.8 {
		t.Fatal("spike trace wrong")
	}
	if g.Node(0).Load != nil {
		t.Fatal("non-victim has load")
	}
	// Out-of-range victim means no spike anywhere.
	g2, err := spikeGrid(3, -1, 10, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g2.Nodes() {
		if n.Load != nil {
			t.Fatal("victim -1 should mean idle grid")
		}
	}
}

func TestStepTrace(t *testing.T) {
	tr := stepTrace(5, 0.7)
	if tr.At(4.9) != 0 || tr.At(5) != 0.7 {
		t.Fatal("stepTrace wrong")
	}
}
