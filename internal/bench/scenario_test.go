package bench

import (
	"errors"
	"strings"
	"testing"
)

func TestSpikeGridShape(t *testing.T) {
	g := spikeGrid(4, 2, 10, 0.8)
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
	g2 := spikeGrid(3, -1, 10, 0.8)
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

// TestMustNamesTheCall: an error an experiment's call returns is a bug
// in the experiment, so must panics with the error and the call site.
func TestMustNamesTheCall(t *testing.T) {
	if got := must(7, nil); got != 7 {
		t.Fatalf("must(7, nil) = %d", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "scenario_test.go:") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %q does not name the call site and the error", msg)
		}
	}()
	must(0, errors.New("boom"))
}
