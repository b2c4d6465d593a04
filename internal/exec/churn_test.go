package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
	"gridpipe/internal/topo"
)

// randomChurn generates a seeded random crash/rejoin schedule over the
// given nodes: each node independently crashes with probability crashP
// at a uniform time in (0.05, 0.7)·horizon and stays down for an
// exponential time of the given mean (clamped inside the horizon). The
// first listed node never crashes, so the grid always retains capacity
// to drain.
func randomChurn(t testing.TB, seed uint64, horizon float64, nodes []string, crashP, meanDown float64) *grid.ChurnSchedule {
	t.Helper()
	r := rng.New(seed)
	var evs []grid.ChurnEvent
	for i, name := range nodes {
		if i == 0 || r.Float64() >= crashP {
			continue
		}
		t0 := r.Range(0.05, 0.7) * horizon
		t1 := t0 + r.Exp(1/meanDown)
		if t1 >= horizon {
			t1 = 0.99 * horizon
		}
		if t1 <= t0 {
			continue
		}
		evs = append(evs, grid.Outage(name, t0, t1)...)
	}
	return mustChurn(t, evs...)
}

// mustChurn builds a schedule or fails the test.
func mustChurn(t testing.TB, evs ...grid.ChurnEvent) *grid.ChurnSchedule {
	t.Helper()
	cs, err := grid.NewChurnSchedule(evs...)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// latencyDigest hashes the per-item latency trace plus the churn
// counters: any divergence in completion times, losses, or retries
// changes it.
func latencyDigest(e *Executor) string {
	h := fnv.New64a()
	for i, l := range e.Latencies() {
		fmt.Fprintf(h, "%d:%.12g;", i, l)
	}
	fmt.Fprintf(h, "lost=%d;retries=%d;migr=%d;", e.Lost(), e.Retries(), e.Migrations())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCrashParksAndRejoinResumes: a static mapping whose middle stage
// lives only on the crashed node. Work bound for it parks during the
// outage and drains after the rejoin; nothing is lost or duplicated.
func TestCrashParksAndRejoinResumes(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(3, 0.1, 1e4)
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, model.OneToOne(3), Options{MaxInFlight: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InstallChurn(mustChurn(t, grid.Outage("node1", 1, 4)...)); err != nil {
		t.Fatal(err)
	}
	completedAt := map[int]int{}
	e.onComplete = func(seq int) { completedAt[seq]++ }

	makespan, err := e.RunItems(50)
	if err != nil {
		t.Fatal(err)
	}
	if e.Lost() != 0 {
		t.Fatalf("Lost = %d, want 0 (everything parks and resumes)", e.Lost())
	}
	if e.Retries() == 0 || e.LostWork() <= 0 {
		t.Fatalf("retries %d, lost work %v: the crash should have cost both", e.Retries(), e.LostWork())
	}
	if e.Done() != 50 || e.admitted != 50 || e.InFlight() != 0 {
		t.Fatalf("done=%d admitted=%d inflight=%d, want 50/50/0", e.Done(), e.admitted, e.InFlight())
	}
	for seq, n := range completedAt {
		if n != 1 {
			t.Fatalf("item %d completed %d times", seq, n)
		}
	}
	// The outage window [1,4) stalls the pipeline: the makespan must
	// reflect the dead time.
	if makespan < 4 {
		t.Fatalf("makespan = %v, want > 4 (run spans the outage)", makespan)
	}
	if len(e.parked) != 0 {
		t.Fatalf("Parked = %d at end of run", len(e.parked))
	}
}

// TestCrashReroutesToLiveReplica: the heavy stage is replicated; when
// one replica crashes, queued and in-service work re-dispatches to the
// survivor and the run never stalls on parking.
func TestCrashReroutesToLiveReplica(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1, 1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(3, 0.1, 1e4)
	m := model.Mapping{Assign: [][]grid.NodeID{{0}, {1, 2}, {3}}}
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	// node1 dies at t=1 and never comes back.
	if err := e.InstallChurn(mustChurn(t, grid.ChurnEvent{T: 1, Node: "node1", Kind: grid.ChurnCrash})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunItems(80); err != nil {
		t.Fatal(err)
	}
	if e.Lost() != 0 {
		t.Fatalf("Lost = %d, want 0", e.Lost())
	}
	if e.Retries() == 0 {
		t.Fatal("expected retries for the crashed replica's in-flight work")
	}
	if e.Done() != 80 {
		t.Fatalf("done = %d, want 80", e.Done())
	}
}

// TestDrainFinishesAcceptedWork: draining a replica reroutes new items
// to the survivor without losing or retrying anything.
func TestDrainFinishesAcceptedWork(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1, 1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(3, 0.1, 1e4)
	m := model.Mapping{Assign: [][]grid.NodeID{{0}, {1, 2}, {3}}}
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InstallChurn(mustChurn(t, grid.ChurnEvent{T: 1, Node: "node1", Kind: grid.ChurnDrain})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunItems(60); err != nil {
		t.Fatal(err)
	}
	if e.Lost() != 0 || e.Retries() != 0 {
		t.Fatalf("lost=%d retries=%d, want 0/0 for a graceful drain", e.Lost(), e.Retries())
	}
	if e.Done() != 60 {
		t.Fatalf("done = %d, want 60", e.Done())
	}
}

// TestDroppedItemDiscardsSiblingInService: when one branch of a split
// item exhausts the retry budget while the other branch's part is in
// service, that part's result is discarded when it finishes. The stage
// records no service for it, and nothing moves on to the merge.
func TestDroppedItemDiscardsSiblingInService(t *testing.T) {
	g, err := grid.Homogeneous(3, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := topo.Diamond(
		topo.Stage{Name: "head", Work: 0.01, OutBytes: 1e4},
		[]topo.Stage{
			{Name: "left", Work: 10, OutBytes: 1e4},
			{Name: "right", Work: 0.5, OutBytes: 1e4},
		},
		topo.Stage{Name: "tail", Work: 0.01, OutBytes: 1e3},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := model.FromGraph(dg, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(&sim.Engine{}, g, spec, model.FromNodes(0, 1, 2, 0), Options{MaxInFlight: 1, maxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The right part is killed twice, at 0.2 and 0.6, while the left
	// part holds node1 until t ≈ 10.
	churn := mustChurn(t, append(grid.Outage("node2", 0.2, 0.4),
		grid.ChurnEvent{T: 0.6, Node: "node2", Kind: grid.ChurnCrash})...)
	if err := e.InstallChurn(churn); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(15)
	if e.Lost() != 1 || e.Done() != 0 {
		t.Fatalf("lost %d done %d, want the one item lost", e.Lost(), e.Done())
	}
	if got := e.Monitor().Stage(1).MeanService(); !math.IsNaN(got) {
		t.Fatalf("left recorded %v s of service for a part of a dropped item", got)
	}
}

// TestRetryBudgetDropsItems: with a retry budget of 1, a second crash
// hitting the same items drops them; the ledger still balances.
func TestRetryBudgetDropsItems(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	// Slow stage: items sit in service long enough for both crashes to
	// hit them.
	spec := model.Balanced(2, 1.0, 1e4)
	m := model.FromNodes(0, 1)
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 4, maxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Items reach stage 1 only after stage 0's first unit of work, so
	// both windows sit after t=1; the second crash catches items
	// already retried once.
	churn := mustChurn(t,
		append(grid.Outage("node1", 1.2, 1.4), grid.Outage("node1", 1.6, 1.8)...)...)
	if err := e.InstallChurn(churn); err != nil {
		t.Fatal(err)
	}
	lostSeqs := map[int]int{}
	completedSeqs := map[int]int{}
	e.onLost = func(seq int) { lostSeqs[seq]++ }
	e.onComplete = func(seq int) { completedSeqs[seq]++ }

	if _, err := e.RunItems(30); err != nil {
		t.Fatal(err)
	}
	if e.Lost() == 0 {
		t.Fatal("expected dropped items with maxRetries=1 and two crashes")
	}
	if e.Done()+e.Lost() != 30 {
		t.Fatalf("done %d + lost %d != 30", e.Done(), e.Lost())
	}
	for seq := range lostSeqs {
		if completedSeqs[seq] != 0 {
			t.Fatalf("item %d both lost and completed", seq)
		}
	}
	for seq, n := range completedSeqs {
		if n != 1 {
			t.Fatalf("item %d completed %d times", seq, n)
		}
	}
}

// TestCrashInvalidatesHalfJoin: a fan-in replica that crashes mid-join
// and rejoins must not resurrect the parts it had accumulated — they
// died with it and are re-fetched from the upstream boundary (counted
// on the retry ledger). Pinned because the naive path (stale
// joined/pending counters surviving the crash) completes the join for
// free.
func TestCrashInvalidatesHalfJoin(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1, 1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	// Diamond with very unequal branches: the fast branch's part lands
	// at the join (on node3, its sole replica) long before the slow
	// branch's part, leaving a wide half-join window for the crash.
	dg, err := topo.Diamond(
		topo.Stage{Name: "head", Work: 0.05, OutBytes: 1e5},
		[]topo.Stage{
			{Name: "fast", Work: 0.05, OutBytes: 1e5},
			{Name: "slow", Work: 2.0, OutBytes: 1e5},
		},
		topo.Stage{Name: "join", Work: 0.05, OutBytes: 1e3},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := model.FromGraph(dg, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	m := model.FromNodes(0, 1, 2, 3)
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Crash the join host inside the first item's half-join window
	// (fast part arrives ≈0.1s, slow part ≈2.1s) and rejoin before the
	// slow part lands: the join completes on the same node.
	if err := e.InstallChurn(mustChurn(t, grid.Outage("node3", 0.5, 1.0)...)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunItems(10); err != nil {
		t.Fatal(err)
	}
	if e.Done() != 10 || e.Lost() != 0 {
		t.Fatalf("done=%d lost=%d, want 10/0", e.Done(), e.Lost())
	}
	// The fast parts joined before the crash must have been re-fetched:
	// without the epoch check the retry ledger here is 0.
	if e.Retries() == 0 {
		t.Fatal("half-joined parts survived the crash for free (no re-fetch recorded)")
	}
}

// TestChurnConservationProperty is the conservation law under random
// churn: across randomized schedules, topologies, mappings and retry
// budgets, every admitted item is exactly once either completed or
// counted lost — no duplicates, no leaks.
func TestChurnConservationProperty(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(seed*977 + 13)
			np := 3 + r.Intn(3)
			speeds := make([]float64, np)
			names := make([]string, np)
			for i := range speeds {
				speeds[i] = 0.5 + 2*r.Float64()
				names[i] = fmt.Sprintf("node%d", i)
			}
			g, err := grid.Heterogeneous(speeds, grid.LANLink)
			if err != nil {
				t.Fatal(err)
			}

			// Topology: linear chain or diamond, randomly.
			var spec model.PipelineSpec
			if r.Float64() < 0.5 {
				spec = model.Balanced(2+r.Intn(3), 0.05+0.2*r.Float64(), 1e4)
			} else {
				dg, err := topo.Diamond(
					topo.Stage{Name: "head", Work: 0.05, OutBytes: 1e4},
					[]topo.Stage{
						{Name: "left", Work: 0.1, OutBytes: 1e4},
						{Name: "right", Work: 0.15, OutBytes: 1e4},
					},
					topo.Stage{Name: "tail", Work: 0.05, OutBytes: 1e3},
				)
				if err != nil {
					t.Fatal(err)
				}
				spec, err = model.FromGraph(dg, 1e4)
				if err != nil {
					t.Fatal(err)
				}
			}

			// Random valid mapping; replicate one stage sometimes.
			ns := spec.NumStages()
			assign := make([]grid.NodeID, ns)
			for i := range assign {
				assign[i] = grid.NodeID(r.Intn(np))
			}
			m := model.FromNodes(assign...)
			if r.Float64() < 0.5 && np >= 2 {
				si := r.Intn(ns)
				a := grid.NodeID(r.Intn(np))
				b := grid.NodeID((int(a) + 1 + r.Intn(np-1)) % np)
				m = m.WithReplicas(si, a, b)
			}

			churn := randomChurn(t, seed*31+7, 20, names, 0.7, 4)
			maxRetries := []int{-1, 1, 8}[r.Intn(3)]

			eng := &sim.Engine{}
			e, err := New(eng, g, spec, m, Options{MaxInFlight: 6, maxRetries: maxRetries})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InstallChurn(churn); err != nil {
				t.Fatal(err)
			}
			completed := map[int]int{}
			lost := map[int]int{}
			e.onComplete = func(seq int) { completed[seq]++ }
			e.onLost = func(seq int) { lost[seq]++ }

			const items = 120
			if _, err := e.RunItems(items); err != nil {
				t.Fatalf("churn=%v: %v", churn.Events(), err)
			}
			if e.admitted != items {
				t.Fatalf("admitted = %d, want %d", e.admitted, items)
			}
			if e.Done()+e.Lost() != items {
				t.Fatalf("done %d + lost %d != %d", e.Done(), e.Lost(), items)
			}
			if e.InFlight() != 0 {
				t.Fatalf("inFlight = %d at end", e.InFlight())
			}
			for seq := 0; seq < items; seq++ {
				c, l := completed[seq], lost[seq]
				if c+l != 1 {
					t.Fatalf("item %d: completed %d times, lost %d times (want exactly one of either)", seq, c, l)
				}
			}
		})
	}
}

// TestChurnDeterminism: two fresh engines with the same seed and churn
// schedule must produce identical latency traces and churn counters.
func TestChurnDeterminism(t *testing.T) {
	run := func() string {
		g, err := grid.Heterogeneous([]float64{1, 2, 1.5, 1}, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		spec := model.Balanced(4, 0.3, 2e5)
		m := model.Mapping{Assign: [][]grid.NodeID{{0}, {1, 2}, {3}, {0}}}
		eng := &sim.Engine{}
		sampler := func(stage, seq int) float64 {
			return 0.2 + 0.01*float64((stage*31+seq*17)%13)
		}
		e, err := New(eng, g, spec, m, Options{MaxInFlight: 12, WorkSampler: sampler})
		if err != nil {
			t.Fatal(err)
		}
		churn := mustChurn(t,
			grid.ChurnEvent{T: 5, Node: "node1", Kind: grid.ChurnCrash},
			grid.ChurnEvent{T: 9, Node: "node3", Kind: grid.ChurnCrash},
			grid.ChurnEvent{T: 14, Node: "node1", Kind: grid.ChurnRejoin},
			grid.ChurnEvent{T: 20, Node: "node3", Kind: grid.ChurnRejoin},
		)
		if err := e.InstallChurn(churn); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunItems(120); err != nil {
			t.Fatal(err)
		}
		return latencyDigest(e)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed and churn schedule diverged: %s vs %s", a, b)
	}
}

// TestGoldenChurnTrace pins the canonical crash/rejoin run's event
// sequence byte for byte: the digest covers every per-item latency and
// the loss/retry/migration counters. Any change to lifecycle routing,
// retry accounting, or parking order shows up here.
func TestGoldenChurnTrace(t *testing.T) {
	const (
		goldenDigest   = "f2f92f133e03966e"
		goldenMakespan = "62.34"
	)
	g, err := grid.Heterogeneous([]float64{1, 2, 1.5, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(4, 0.3, 2e5)
	m := model.Mapping{Assign: [][]grid.NodeID{{0}, {1, 2}, {3}, {0}}}
	eng := &sim.Engine{}
	sampler := func(stage, seq int) float64 {
		return 0.2 + 0.01*float64((stage*31+seq*17)%13)
	}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 12, WorkSampler: sampler})
	if err != nil {
		t.Fatal(err)
	}
	// The canonical churn scenario: one replica of the farmed stage
	// crashes mid-run and rejoins; its sibling replica drains late (the
	// rejoined node finishes the stage alone).
	churn := mustChurn(t,
		grid.ChurnEvent{T: 5, Node: "node1", Kind: grid.ChurnCrash},
		grid.ChurnEvent{T: 15, Node: "node1", Kind: grid.ChurnRejoin},
		grid.ChurnEvent{T: 22, Node: "node2", Kind: grid.ChurnDrain},
	)
	if err := e.InstallChurn(churn); err != nil {
		t.Fatal(err)
	}
	makespan, err := e.RunItems(120)
	if err != nil {
		t.Fatal(err)
	}
	if got := latencyDigest(e); got != goldenDigest {
		t.Fatalf("churn-trace digest = %s, want %s", got, goldenDigest)
	}
	if got := fmt.Sprintf("%.12g", makespan); got != goldenMakespan {
		t.Fatalf("makespan = %s, want %s", got, goldenMakespan)
	}
}

// TestInstallChurnErrors: installing twice or against unknown nodes
// fails cleanly.
func TestInstallChurnErrors(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 1}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(2, 0.1, 1e4)
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, model.FromNodes(0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InstallChurn(mustChurn(t, grid.Outage("nodeX", 1, 2)...)); err == nil {
		t.Fatal("churn referencing an unknown node should fail")
	}
	ok := mustChurn(t, grid.Outage("node1", 1, 2)...)
	if err := e.InstallChurn(ok); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallChurn(ok); err == nil {
		t.Fatal("double install should fail")
	}
}
