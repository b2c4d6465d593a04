package cluster

import (
	"fmt"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/forecast"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
	"gridpipe/internal/workload"
)

// A steady-state arbitration round — three tenants whose leases, loads
// and upstream reservations did not change — replays every per-tenant
// search from the divider's memo and allocates nothing: the cluster's
// per-tick cost when nothing moved. The rounds alternate a nil base
// (what an arrival or a finish passes) with an all-zero one (an idle
// grid's sensor vector at a controller tick), as the cluster's do: the
// two are one key.
func TestDividerRoundZeroAlloc(t *testing.T) {
	d := NewDivider(homGrid(t, 8), 0)
	tenants := make([]DividerTenant, 3)
	for i := range tenants {
		tenants[i] = DividerTenant{
			ID:       i,
			Tenant:   Tenant{Weight: 1, Floor: 1},
			Spec:     model.Balanced(4, 0.1, 1e5),
			Searcher: sched.LocalSearch{Seed: rng.SeedFor(42, uint64(i))},
		}
	}
	out := make([]Placement, len(tenants))
	zeros := make([]float64, 8)
	round := func() {
		for _, base := range [][]float64{nil, zeros} {
			if err := d.Round(nil, tenants, base, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // populates the memo
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("steady-state arbitration round allocates %v, want 0", a)
	}
	if st := d.Stats(); st.Searches > len(tenants) {
		t.Fatalf("steady rounds re-searched: %d searches for %d tenants", st.Searches, len(tenants))
	}
}

// captureClock hands the controller's tick function to the test.
type captureClock struct{ tick func(now float64) }

func (c *captureClock) Tick(_ float64, fn func(now float64)) (stop func()) {
	c.tick = fn
	return func() {}
}

// An idle controller tick — three running tenants, no lease or load
// change — allocates nothing, all the way through a periodic policy's
// search: the load vector, the slowdown vector and the current-mapping
// list are reused buffers, the tenants' mappings are read in place, and
// the division round replays from the memo. The sensors get a
// last-value forecaster: the default battery's median and AR(1) members
// copy their windows on every observation (internal/forecast, two
// allocations per node per tick), which is not the cluster's cost.
func TestIdleControllerTickZeroAlloc(t *testing.T) {
	c, err := New(homGrid(t, 8), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.sensors {
		c.sensors[i] = monitor.NewNodeSensor(c.g.Node(grid.NodeID(i)), forecast.NewLastValue())
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(jobOf(fmt.Sprintf("j%d", i), workload.Genome(), 0, 1_000_000)); err != nil {
			t.Fatal(err)
		}
	}
	c.started = true
	for i := 0; i < 5000; i++ { // admit all three and fill their pipelines
		c.eng.Step()
	}
	if len(c.running) != 3 {
		t.Fatalf("%d tenants running, want 3", len(c.running))
	}
	sub, clk := &arbSub{c: c}, &captureClock{}
	ctrl, err := adaptive.New(sub, sub, clk, adaptive.Config{Policy: adaptive.PolicyPeriodic})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	tick := func() { clk.tick(c.eng.Now()) }
	tick() // first tick searches under measured loads and fills the buffers
	if a := testing.AllocsPerRun(100, tick); a != 0 {
		t.Fatalf("idle controller tick allocates %v, want 0", a)
	}
	if st := ctrl.Stats(); st.Searches < 100 || st.Remaps != 0 {
		t.Fatalf("ticks must search and find nothing to move: %+v", st)
	}
}
