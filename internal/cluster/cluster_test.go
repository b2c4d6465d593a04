package cluster

import (
	"fmt"
	"math"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/workload"
)

func jobOf(name string, app workload.App, arrival float64, items int) model.JobSpec {
	return model.JobSpec{
		Name:    name,
		Spec:    app.Spec,
		Arrival: arrival,
		Items:   items,
		CV:      app.CV,
	}
}

func TestSingleJobDegenerate(t *testing.T) {
	g := homGrid(t, 4)
	c, err := New(g, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(jobOf("solo", workload.Genome(), 0, 100)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if jr.Done != 100 || jr.Lost != 0 {
		t.Fatalf("done=%d lost=%d, want 100/0", jr.Done, jr.Lost)
	}
	if jr.Waited != 0 {
		t.Fatalf("a sole tenant must admit immediately, waited %v", jr.Waited)
	}
	if rep.Jain != 1 {
		t.Fatalf("one job is perfectly fair by definition, Jain=%v", rep.Jain)
	}
	if jr.Makespan <= 0 || rep.Makespan != jr.Finished {
		t.Fatalf("bad makespans: job=%v cluster=%v finished=%v", jr.Makespan, rep.Makespan, jr.Finished)
	}
}

func TestTwoJobsStaggeredArbitration(t *testing.T) {
	g := homGrid(t, 8)
	c, err := New(g, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(jobOf("early", workload.Genome(), 0, 600)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(jobOf("late", workload.Image(), 5, 300)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Done != 600 || rep.Jobs[1].Done != 300 {
		t.Fatalf("done=%d/%d, want 600/300", rep.Jobs[0].Done, rep.Jobs[1].Done)
	}
	// Arrival of the second job and the first finish both re-divide.
	if rep.Arbitrations < 2 {
		t.Fatalf("expected ≥2 arbitration rounds (arrival + finish), got %d", rep.Arbitrations)
	}
	// The early job's lease must shrink when the late one arrives: its
	// executor sees at least one remap over its lifetime.
	if rep.Jobs[0].Remaps == 0 {
		t.Fatal("the early job's lease never moved despite a second tenant arriving")
	}
	if math.IsNaN(rep.Jain) || rep.Jain <= 0 || rep.Jain > 1 {
		t.Fatalf("bad Jain index %v", rep.Jain)
	}
}

// TestSameSeedDeterminism is the multi-job determinism gate: two runs
// of the same cluster configuration must produce identical reports,
// because every job's randomness is a keyed sub-stream of the root
// seed rather than a draw from shared state.
func TestSameSeedDeterminism(t *testing.T) {
	run := func() string {
		g := homGrid(t, 8)
		c, err := New(g, Config{Seed: 3, Policy: adaptive.PolicyReactive})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(jobOf("a", workload.Genome(), 0, 120)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(jobOf("b", workload.Video(), 15, 80)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(jobOf("c", workload.Image(), 30, 100)); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", rep)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed cluster runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestAdmissionQueue(t *testing.T) {
	g := homGrid(t, 8)
	c, err := New(g, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	big := jobOf("big", workload.Genome(), 0, 120)
	big.FloorNodes = 5
	if _, err := c.Submit(big); err != nil {
		t.Fatal(err)
	}
	second := jobOf("second", workload.Genome(), 1, 60)
	second.FloorNodes = 5
	if _, err := c.Submit(second); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[1]
	if jr.State != JobDone {
		t.Fatalf("queued job never ran: %s", jr.State)
	}
	if jr.Waited <= 0 {
		t.Fatal("two floor-5 jobs cannot share 8 nodes; the second must wait in the queue")
	}
	if jr.Admitted < rep.Jobs[0].Finished {
		t.Fatalf("second admitted at %v before first finished at %v", jr.Admitted, rep.Jobs[0].Finished)
	}
}

func TestAdmissionReject(t *testing.T) {
	g := homGrid(t, 8)
	c, err := New(g, Config{Seed: 5, Admission: AdmitReject})
	if err != nil {
		t.Fatal(err)
	}
	big := jobOf("big", workload.Genome(), 0, 120)
	big.FloorNodes = 5
	if _, err := c.Submit(big); err != nil {
		t.Fatal(err)
	}
	second := jobOf("second", workload.Genome(), 1, 60)
	second.FloorNodes = 5
	if _, err := c.Submit(second); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[1].State != JobRejected {
		t.Fatalf("expected rejection, got %s", rep.Jobs[1].State)
	}
	if rep.Jobs[0].Done != 120 {
		t.Fatalf("the admitted job must still finish, done=%d", rep.Jobs[0].Done)
	}
}

func TestFloorExceedsGridErrorsAtSubmit(t *testing.T) {
	g := homGrid(t, 4)
	c, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := jobOf("bad", workload.Genome(), 0, 10)
	bad.FloorNodes = 5
	if _, err := c.Submit(bad); err == nil {
		t.Fatal("a floor above the whole grid must be a clean Submit error")
	}
}

// TestSubmitPinnedValidation pins SubmitPinned's checks on the
// caller's lease (gridpipe.JobOpts.PinNodes reaches it unfiltered): an
// empty lease and a node outside the grid are clean Submit errors, and
// the grid's first and last nodes are a valid lease.
func TestSubmitPinnedValidation(t *testing.T) {
	g := homGrid(t, 6)
	c, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	job := jobOf("a", workload.Genome(), 0, 10)
	for _, nodes := range [][]grid.NodeID{nil, {0, -1}, {0, grid.NodeID(g.NumNodes())}} {
		if _, err := c.SubmitPinned(job, nodes); err == nil {
			t.Fatalf("SubmitPinned(%v) on a %d-node grid must error", nodes, g.NumNodes())
		}
	}
	if _, err := c.SubmitPinned(job, []grid.NodeID{0, grid.NodeID(g.NumNodes() - 1)}); err != nil {
		t.Fatalf("SubmitPinned on the grid's first and last nodes: %v", err)
	}
}

// TestOverAdmissionContention pins the collapse mechanism: admitting
// every job at once onto overlapping leases slows each one down via
// proportional sharing, where queued admission keeps per-job service
// near nominal.
func TestOverAdmissionContention(t *testing.T) {
	mk := func(adm Admission) Report {
		g := homGrid(t, 2)
		c, err := New(g, Config{Seed: 9, Admission: adm})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			js := jobOf(fmt.Sprintf("j%d", i), workload.Balanced(2, 0.2, 0), 0, 40)
			js.FloorNodes = 2
			if _, err := c.Submit(js); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	over := mk(AdmitAll)
	queued := mk(AdmitQueue)
	for _, jr := range over.Jobs {
		if jr.Done != 40 {
			t.Fatalf("over-admitted job %s done=%d, want 40", jr.Name, jr.Done)
		}
	}
	// Over-admission shares 2 nodes among 4 jobs from t=0: every job's
	// individual makespan stretches far beyond its queued-admission
	// counterpart even though total completion time is similar.
	overMean, queuedMean := 0.0, 0.0
	for i := range over.Jobs {
		overMean += over.Jobs[i].Makespan
		queuedMean += queued.Jobs[i].Makespan
	}
	if overMean <= 1.5*queuedMean {
		t.Fatalf("expected over-admission to stretch per-job makespans (over %v vs queued %v)",
			overMean/4, queuedMean/4)
	}
}

// TestAdmissionPinnedPlusFloor pins the review finding: a pinned
// tenant occupies its nodes, so a floor that only fits the full grid
// must queue (not panic the arbiter) while the pinned job runs.
func TestAdmissionPinnedPlusFloor(t *testing.T) {
	g := homGrid(t, 4)
	c, err := New(g, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pinnedJob := jobOf("pinned", workload.Genome(), 0, 120)
	if _, err := c.SubmitPinned(pinnedJob, []grid.NodeID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	floored := jobOf("floored", workload.Genome(), 1, 60)
	floored.FloorNodes = 2
	if _, err := c.Submit(floored); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run() // must not panic: 2 > the 1 unpinned node
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[1]
	if jr.State != JobDone {
		t.Fatalf("floored job state=%s, want done", jr.State)
	}
	if jr.Waited <= 0 || jr.Admitted < rep.Jobs[0].Finished {
		t.Fatalf("floored job must wait for the pinned lease to free (waited=%v admitted=%v pinned finished=%v)",
			jr.Waited, jr.Admitted, rep.Jobs[0].Finished)
	}
}

// TestAdmissionQueueFIFO pins the review finding: a small job arriving
// behind a blocked queue head must wait its turn, not jump the queue —
// otherwise a stream of small jobs starves the big one.
func TestAdmissionQueueFIFO(t *testing.T) {
	g := homGrid(t, 4)
	c, err := New(g, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	running := jobOf("running", workload.Genome(), 0, 120)
	running.FloorNodes = 3
	if _, err := c.Submit(running); err != nil {
		t.Fatal(err)
	}
	head := jobOf("head", workload.Genome(), 1, 60)
	head.FloorNodes = 3
	if _, err := c.Submit(head); err != nil {
		t.Fatal(err)
	}
	small := jobOf("small", workload.Genome(), 2, 30)
	small.FloorNodes = 1
	if _, err := c.Submit(small); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	headR, smallR := rep.Jobs[1], rep.Jobs[2]
	if smallR.Admitted < headR.Admitted {
		t.Fatalf("small (arrived %v, admitted %v) jumped the queue past head (arrived %v, admitted %v)",
			smallR.Arrival, smallR.Admitted, headR.Arrival, headR.Admitted)
	}
}

// TestOverAdmissionPinnedWholeGrid pins the review finding: under
// AdmitAll, an unpinned job arriving while a pinned tenant holds the
// whole grid must queue cleanly (zero pool), not panic the arbiter.
func TestOverAdmissionPinnedWholeGrid(t *testing.T) {
	g := homGrid(t, 4)
	c, err := New(g, Config{Seed: 21, Admission: AdmitAll})
	if err != nil {
		t.Fatal(err)
	}
	pinnedJob := jobOf("pinned", workload.Genome(), 0, 80)
	if _, err := c.SubmitPinned(pinnedJob, []grid.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(jobOf("free", workload.Genome(), 1, 40)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run() // must not panic on a zero unpinned pool
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[1]
	if jr.State != JobDone || jr.Waited <= 0 {
		t.Fatalf("free job must wait for the pinned grid and then finish: state=%s waited=%v", jr.State, jr.Waited)
	}
}

// TestClusterMisuse: a cluster refuses a nil grid, a run with no jobs,
// a second run and a submission after the run; an unnamed job is named
// by its submission index and reports its lifecycle state.
func TestClusterMisuse(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New(nil) must error")
	}
	c, err := New(homGrid(t, 2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Error("Run with no jobs must error")
	}
	j, err := c.Submit(jobOf("", workload.Balanced(2, 0.1, 0), 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if j.Name() != "job0" || j.State() != JobPending {
		t.Errorf("unnamed job: %q %v, want job0 pending", j.Name(), j.State())
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if j.State() != JobDone {
		t.Errorf("after the run the job is %v, want done", j.State())
	}
	if _, err := c.Run(); err == nil {
		t.Error("a second Run must error")
	}
	if _, err := c.Submit(jobOf("late", workload.Balanced(2, 0.1, 0), 0, 5)); err == nil {
		t.Error("Submit after Run must error")
	}
}

func TestJobStateString(t *testing.T) {
	for s, want := range map[JobState]string{
		JobPending: "pending", JobQueued: "queued", JobRunning: "running",
		JobDone: "done", JobRejected: "rejected", JobState(9): "state(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("JobState(%d) = %q, want %q", int(s), got, want)
		}
	}
}

// fairness is NaN where it has nothing to summarise: no shares, or
// Jain's index over all-zero shares.
func TestFairnessDegenerate(t *testing.T) {
	if lo, jain := fairness(nil); !math.IsNaN(lo) || !math.IsNaN(jain) {
		t.Errorf("no shares: %v %v, want NaN NaN", lo, jain)
	}
	if lo, jain := fairness([]float64{0, 0}); lo != 0 || !math.IsNaN(jain) {
		t.Errorf("zero shares: %v %v, want 0 NaN", lo, jain)
	}
}

// The division entry points check the caller's buffers against the
// tenants and the grid.
func TestDivisionChecksBuffers(t *testing.T) {
	g := homGrid(t, 3)
	var ab Arbiter
	tenants := []Tenant{{Weight: 1}, {Weight: 1}}
	if err := ab.Divide(g, nil, tenants, []model.CapacityMask{make(model.CapacityMask, 3)}); err == nil {
		t.Error("Divide with one mask for two tenants must error")
	}
	short := []model.CapacityMask{make(model.CapacityMask, 3), make(model.CapacityMask, 2)}
	if err := ab.Divide(g, nil, tenants, short); err == nil {
		t.Error("Divide with a mask shorter than the grid must error")
	}
	if err := NewDivider(g, 0).Round(nil, make([]DividerTenant, 2), nil, make([]Placement, 1)); err == nil {
		t.Error("Round with one placement for two tenants must error")
	}
}
