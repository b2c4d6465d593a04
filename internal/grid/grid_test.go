package grid

import (
	"math"
	"strings"
	"testing"

	"gridpipe/internal/trace"
)

// mustGrid unwraps a (grid, error) pair; construction failures in
// fixtures are programming errors, so it panics.
func mustGrid(g *Grid, err error) *Grid {
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewGridAssignsIDsAndNames(t *testing.T) {
	g := mustGrid(NewGrid(LANLink,
		&Node{Speed: 1, Cores: 1},
		&Node{Name: "big", Speed: 2, Cores: 4},
	))
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.Node(0).Name != "node0" || g.Node(1).Name != "big" {
		t.Fatalf("names: %q %q", g.Node(0).Name, g.Node(1).Name)
	}
	if g.Node(1).ID != 1 {
		t.Fatalf("ID = %d", g.Node(1).ID)
	}
	if g.NodeByName("big") != g.Node(1) || g.NodeByName("nope") != nil {
		t.Fatal("NodeByName wrong")
	}
}

func TestNewGridRejectsBadInput(t *testing.T) {
	if _, err := NewGrid(LANLink); err == nil {
		t.Fatal("no nodes should fail")
	}
	if _, err := NewGrid(LANLink, &Node{Name: "a", Speed: 0, Cores: 1}); err == nil {
		t.Fatal("zero speed should fail")
	}
	if _, err := NewGrid(LANLink, &Node{Name: "a", Speed: 1, Cores: 0}); err == nil {
		t.Fatal("zero cores should fail")
	}
	if _, err := NewGrid(LANLink,
		&Node{Name: "a", Speed: 1, Cores: 1},
		&Node{Name: "a", Speed: 1, Cores: 1}); err == nil {
		t.Fatal("duplicate names should fail")
	}
	if _, err := NewGrid(Link{Latency: -1, Bandwidth: 1},
		&Node{Speed: 1, Cores: 1}); err == nil {
		t.Fatal("bad default link should fail")
	}
}

func TestSelfLinkIsLocal(t *testing.T) {
	g := mustGrid(Homogeneous(2, 1, WANLink))
	l := g.Link(0, 0)
	if l.Latency != LocalLink.Latency {
		t.Fatalf("self link = %+v", l)
	}
	if d := l.TransferDuration(1e6, 0); d > 1e-3 {
		t.Fatalf("local transfer too slow: %v", d)
	}
}

func TestSetLinkSymmetric(t *testing.T) {
	g := mustGrid(Homogeneous(3, 1, LANLink))
	fast := Link{Latency: 1e-6, Bandwidth: 1e9}
	if err := g.SetLink(0, 2, fast); err != nil {
		t.Fatal(err)
	}
	if g.Link(0, 2).Bandwidth != 1e9 || g.Link(2, 0).Bandwidth != 1e9 {
		t.Fatal("SetLink not symmetric")
	}
	if g.Link(0, 1).Bandwidth != LANLink.Bandwidth {
		t.Fatal("SetLink affected unrelated pair")
	}
	if err := g.SetLink(1, 1, fast); err == nil {
		t.Fatal("self-link override should fail")
	}
	if err := g.SetLink(0, 9, fast); err == nil {
		t.Fatal("invalid id should fail")
	}
	if err := g.SetLink(0, 1, Link{Latency: 1e-3}); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
}

// A link whose quality trace reports full degradation still moves a
// byte a second, so a transfer cannot stall the simulation.
func TestTransferDurationFloorsBandwidth(t *testing.T) {
	l := Link{Latency: 1, Bandwidth: 1e6, Quality: overload{until: 10, level: 1}}
	if got := l.TransferDuration(50, 0); got != 51 {
		t.Fatalf("50 bytes over a fully degraded link took %v, want 51", got)
	}
}

func TestTransferDuration(t *testing.T) {
	l := Link{Latency: 0.01, Bandwidth: 1000}
	if got := l.TransferDuration(500, 0); math.Abs(got-0.51) > 1e-12 {
		t.Fatalf("transfer = %v, want 0.51", got)
	}
	degraded := Link{Latency: 0, Bandwidth: 1000, Quality: trace.Constant(0.5)}
	if got := degraded.TransferDuration(500, 0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("degraded transfer = %v, want 1.0", got)
	}
}

func TestEffectiveSpeed(t *testing.T) {
	n := &Node{Speed: 2, Cores: 1, Load: trace.Constant(0.25)}
	if got := n.EffectiveSpeed(0); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("effective speed = %v, want 1.5", got)
	}
	idle := &Node{Speed: 3, Cores: 1}
	if idle.EffectiveSpeed(10) != 3 {
		t.Fatal("nil load should mean idle")
	}
}

func TestServiceDurationConstantLoad(t *testing.T) {
	n := &Node{Speed: 2, Cores: 1, Load: trace.Constant(0.5)}
	// effective speed 1 → 3 units of work take 3 s.
	if got := n.ServiceDuration(3, 0); math.Abs(got-3) > 1e-9 {
		t.Fatalf("duration = %v, want 3", got)
	}
	if n.ServiceDuration(0, 5) != 0 {
		t.Fatal("zero work should be instant")
	}
}

func TestServiceDurationStepLoad(t *testing.T) {
	// Load jumps from 0 to 0.5 at t=10: first 10 s at speed 1, then
	// speed 0.5. 15 units of work → 10 + (15-10)/0.5 = 20 s.
	n := &Node{
		Speed: 1, Cores: 1,
		Load: trace.NewSteps(0, trace.StepChange{T: 10, Load: 0.5}),
	}
	got := n.ServiceDuration(15, 0)
	if math.Abs(got-20) > 0.2 { // quantum-resolution tolerance
		t.Fatalf("duration = %v, want ~20", got)
	}
}

func TestServiceDurationStartsMidTrace(t *testing.T) {
	n := &Node{
		Speed: 1, Cores: 1,
		Load: trace.NewSteps(0, trace.StepChange{T: 10, Load: 0.5}),
	}
	// Starting after the step: everything at speed 0.5.
	got := n.ServiceDuration(5, 100)
	if math.Abs(got-10) > 0.2 {
		t.Fatalf("duration = %v, want ~10", got)
	}
}

func TestServiceDurationPanicsOnNegativeWork(t *testing.T) {
	n := &Node{Speed: 1, Cores: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.ServiceDuration(-1, 0)
}

func TestServiceDurationSurvivesSaturation(t *testing.T) {
	n := &Node{
		Speed: 1, Cores: 1,
		Load: Saturate(trace.Constant(0), 0, 5),
	}
	// 1 unit of work starting inside the outage: stalls (speed 0.02)
	// until t=5 then runs at full speed. Progress during outage is
	// 5*0.02 = 0.1 units, so completion ≈ 5 + 0.9 = 5.9.
	got := n.ServiceDuration(1, 0)
	if got < 5 || got > 6.2 {
		t.Fatalf("duration through outage = %v, want ~5.9", got)
	}
}

// overload reports level before until and no load after: a trace that
// breaks the [0, MaxLoad] contract, as a hand-written outage might.
type overload struct{ until, level float64 }

func (o overload) At(t float64) float64 {
	if t < o.until {
		return o.level
	}
	return 0
}

// A node whose trace reports load at or above its capacity makes no
// progress: service skips forward a quantum at a time until the load
// falls, then runs at full speed.
func TestServiceDurationStallsUnderFullLoad(t *testing.T) {
	for _, level := range []float64{1, 1.5} {
		n := &Node{Speed: 1, Cores: 1, Quantum: 0.5, Load: overload{until: 2, level: level}}
		if got := n.ServiceDuration(1, 0); got != 3 {
			t.Errorf("load %v until t=2: 1 unit of work took %v, want 3", level, got)
		}
	}
}

func TestHomogeneousAndHeterogeneous(t *testing.T) {
	g := mustGrid(Homogeneous(4, 2.5, LANLink))
	for _, n := range g.Nodes() {
		if n.Speed != 2.5 || n.Cores != 1 {
			t.Fatalf("bad node %+v", n)
		}
	}
	h := mustGrid(Heterogeneous([]float64{1, 2, 4}, LANLink))
	for i, want := range []float64{1, 2, 4} {
		if n := h.Node(NodeID(i)); n.Speed != want || n.Cores != 1 {
			t.Fatalf("bad node %+v, want speed %v", n, want)
		}
	}
	if _, err := Homogeneous(0, 1, LANLink); err == nil {
		t.Fatal("0 nodes should fail")
	}
	if _, err := Heterogeneous(nil, LANLink); err == nil {
		t.Fatal("no speeds should fail")
	}
}

func TestMultiSite(t *testing.T) {
	g := mustGrid(MultiSite([]Site{
		{Name: "edi", Nodes: 2, Speed: 1},
		{Name: "bcn", Nodes: 2, Speed: 2, Cores: 2},
	}, LANLink, WANLink))
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NodeByName("edi-0") == nil || g.NodeByName("bcn-1") == nil {
		t.Fatal("site node names wrong")
	}
	// Intra-site: LAN. Inter-site: WAN.
	if g.Link(0, 1).Latency != LANLink.Latency {
		t.Fatalf("intra-site link = %+v", g.Link(0, 1))
	}
	if g.Link(0, 2).Latency != WANLink.Latency {
		t.Fatalf("inter-site link = %+v", g.Link(0, 2))
	}
	if g.NodeByName("bcn-0").Cores != 2 {
		t.Fatal("site cores not applied")
	}
	if _, err := MultiSite(nil, LANLink, WANLink); err == nil {
		t.Fatal("no sites should fail")
	}
	if _, err := MultiSite([]Site{{Name: "x", Nodes: 0, Speed: 1}}, LANLink, WANLink); err == nil {
		t.Fatal("empty site should fail")
	}
}

func TestSaturateTrace(t *testing.T) {
	tr := Saturate(trace.Constant(0.1), 10, 20)
	if tr.At(5) != 0.1 || tr.At(25) != 0.1 {
		t.Fatal("outside outage should be base")
	}
	if tr.At(10) != trace.MaxLoad || tr.At(19.99) != trace.MaxLoad {
		t.Fatal("inside outage should be MaxLoad")
	}
	if Saturate(nil, 0, 1).At(2) != 0 {
		t.Fatal("nil base should default to idle")
	}
}

func TestGridString(t *testing.T) {
	g := mustGrid(Homogeneous(2, 1, LANLink))
	s := g.String()
	if !strings.Contains(s, "2 nodes") || !strings.Contains(s, "node1") {
		t.Fatalf("String:\n%s", s)
	}
}

func TestNodePanicsOnBadID(t *testing.T) {
	g := mustGrid(Homogeneous(1, 1, LANLink))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Node(5)
}

func TestQuantumOverride(t *testing.T) {
	// A coarser quantum changes integration granularity but not the
	// constant-load result.
	n := &Node{Speed: 1, Cores: 1, Load: trace.Constant(0.5), Quantum: 1.0}
	if got := n.ServiceDuration(2, 0); math.Abs(got-4) > 1e-9 {
		t.Fatalf("duration = %v, want 4", got)
	}
}

func TestTransferDurationPanicsOnNegativeBytes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LANLink.TransferDuration(-1, 0)
}
