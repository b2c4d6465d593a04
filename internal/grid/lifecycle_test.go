package grid

import (
	"math"
	"testing"
)

func TestNodeStateZeroValueIsUp(t *testing.T) {
	n := &Node{Name: "a", Speed: 1, Cores: 1}
	if n.State() != Up {
		t.Fatalf("fresh node state = %v", n.State())
	}
	n.SetState(Down)
	if n.State() != Down {
		t.Fatalf("down node state = %v", n.State())
	}
	if Up.String() != "up" || Draining.String() != "draining" || Down.String() != "down" || NodeState(7).String() != "state(7)" {
		t.Fatal("state names wrong")
	}
}

// ChurnKind renders its config-file spelling, which ParseChurnKind
// reads back.
func TestChurnKindString(t *testing.T) {
	for _, k := range []ChurnKind{ChurnCrash, ChurnRejoin, ChurnJoin, ChurnDrain} {
		if back, err := ParseChurnKind(k.String()); err != nil || back != k {
			t.Errorf("%v does not round-trip: %v %v", k, back, err)
		}
	}
	if got := ChurnKind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind renders %q", got)
	}
}

func TestChurnScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		evs  []ChurnEvent
		ok   bool
	}{
		{"empty", nil, true},
		{"crash+rejoin", Outage("a", 1, 2), true},
		{"join", []ChurnEvent{Join("a", 5)}, true},
		{"drain", []ChurnEvent{{T: 5, Node: "a", Kind: ChurnDrain}}, true},
		{"crash of draining node", []ChurnEvent{{T: 1, Node: "a", Kind: ChurnDrain}, {T: 2, Node: "a", Kind: ChurnCrash}}, true},
		{"two disjoint outages", append(Outage("a", 1, 2), Outage("a", 3, 4)...), true},
		{"overlapping outages", []ChurnEvent{
			{T: 1, Node: "a", Kind: ChurnCrash}, {T: 2, Node: "a", Kind: ChurnCrash}}, false},
		{"rejoin before crash", []ChurnEvent{{T: 1, Node: "a", Kind: ChurnRejoin}}, false},
		{"join of existing node", []ChurnEvent{
			{T: 1, Node: "a", Kind: ChurnCrash}, {T: 2, Node: "a", Kind: ChurnJoin}}, false},
		{"rejoin of never-up node", []ChurnEvent{Join("a", 5), {T: 1, Node: "a", Kind: ChurnDrain}}, false},
		{"drain of down node", []ChurnEvent{
			{T: 1, Node: "a", Kind: ChurnCrash}, {T: 2, Node: "a", Kind: ChurnDrain}}, false},
		{"empty node name", []ChurnEvent{{T: 1, Kind: ChurnCrash}}, false},
		{"negative time", []ChurnEvent{{T: -1, Node: "a", Kind: ChurnCrash}}, false},
		{"NaN time", []ChurnEvent{{T: math.NaN(), Node: "a", Kind: ChurnCrash}}, false},
		{"unknown kind", []ChurnEvent{{T: 1, Node: "a", Kind: ChurnKind(99)}}, false},
	}
	for _, c := range cases {
		_, err := NewChurnSchedule(c.evs...)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid schedule accepted", c.name)
		}
	}
}

func TestChurnScheduleSortsStably(t *testing.T) {
	cs, err := NewChurnSchedule(
		ChurnEvent{T: 5, Node: "b", Kind: ChurnCrash},
		ChurnEvent{T: 1, Node: "a", Kind: ChurnCrash},
		ChurnEvent{T: 5, Node: "a", Kind: ChurnRejoin},
	)
	if err != nil {
		t.Fatal(err)
	}
	evs := cs.Events()
	if evs[0].Node != "a" || evs[1].Node != "b" || evs[2].Node != "a" {
		t.Fatalf("sort order wrong: %v", evs)
	}
}

func TestInitiallyDown(t *testing.T) {
	cs, err := NewChurnSchedule(
		Join("fresh", 10),
		ChurnEvent{T: 1, Node: "old", Kind: ChurnCrash},
		ChurnEvent{T: 2, Node: "old", Kind: ChurnRejoin},
	)
	if err != nil {
		t.Fatal(err)
	}
	down := cs.InitiallyDown()
	if len(down) != 1 || down[0] != "fresh" {
		t.Fatalf("InitiallyDown = %v, want [fresh]", down)
	}
}

func TestChurnValidateAgainstGrid(t *testing.T) {
	g := mustGrid(Homogeneous(2, 1, LANLink))
	ok, err := NewChurnSchedule(Outage("node1", 1, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.ValidateAgainst(g); err != nil {
		t.Fatal(err)
	}
	if err := g.SetChurn(ok); err != nil {
		t.Fatal(err)
	}
	if g.Churn() != ok {
		t.Fatal("schedule not attached")
	}
	bad, err := NewChurnSchedule(Outage("ghost", 1, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetChurn(bad); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
}

func TestResetLifecycle(t *testing.T) {
	g := mustGrid(Homogeneous(2, 1, LANLink))
	g.Node(0).SetState(Down)
	g.Node(1).SetState(Draining)
	g.ResetLifecycle()
	for _, n := range g.Nodes() {
		if n.State() != Up {
			t.Fatalf("node %s state %v after reset", n.Name, n.State())
		}
	}
}

func TestAvailability(t *testing.T) {
	cs, err := NewChurnSchedule(append(Outage("a", 25, 75), Join("b", 50))...)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Availability("a", 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("a availability = %v, want 0.5", got)
	}
	if got := cs.Availability("b", 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("b availability = %v, want 0.5", got)
	}
	if got := cs.Availability("untouched", 100); got != 1 {
		t.Fatalf("untouched availability = %v, want 1", got)
	}
	g := mustGrid(Heterogeneous([]float64{1, 1}, LANLink))
	g.Nodes()[0].Name, g.Nodes()[1].Name = "a", "b"
	if got := cs.MeanAvailability(g, 100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean availability = %v, want 0.5", got)
	}
	// Over no time, or over no nodes, everything counts as available.
	if got := cs.Availability("a", 0); got != 1 {
		t.Fatalf("availability over an empty horizon = %v, want 1", got)
	}
	if got := cs.MeanAvailability(&Grid{}, 100); got != 1 {
		t.Fatalf("mean availability of an empty grid = %v, want 1", got)
	}
}

func TestOutagePanicsOnEmptyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on inverted window")
		}
	}()
	Outage("a", 5, 5)
}
