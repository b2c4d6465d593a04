package gridpipe

import (
	"strings"
	"testing"
)

// churnPipeline is a small simulation-only pipeline for churn tests.
func churnPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(
		Stage("parse", nil, Weight(0.05), OutBytes(1e4), Replicable()),
		Stage("work", nil, Weight(0.2), OutBytes(1e4), Replicable()),
		Stage("emit", nil, Weight(0.05), OutBytes(1e3), Replicable()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWithChurnCrashRecovery: the facade end-to-end — a crash under a
// reactive policy is remapped around, the ledger balances, and the
// report carries the loss/retry/availability columns.
func TestWithChurnCrashRecovery(t *testing.T) {
	sg, err := HomogeneousGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.WithChurn(
		ChurnEvent{T: 10, Node: "node1", Kind: "crash"},
		ChurnEvent{T: 40, Node: "node1", Kind: "rejoin"},
	); err != nil {
		t.Fatal(err)
	}
	rep, err := churnPipeline(t).Simulate(sg, SimOptions{
		Duration: 60, Policy: PolicyReactive, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done == 0 {
		t.Fatal("no items completed")
	}
	if rep.MeanAvailability >= 1 || rep.MeanAvailability <= 0 {
		t.Fatalf("MeanAvailability = %v, want in (0,1) under churn", rep.MeanAvailability)
	}
	if rep.Lost != 0 {
		t.Fatalf("Lost = %d; a drain-safe remap should preserve items", rep.Lost)
	}
}

// TestWithChurnStaticBaseline: the same crash under a static policy
// completes fewer items (work parks behind the dead node) but the
// ledger still balances.
func TestWithChurnStaticBaseline(t *testing.T) {
	mkGrid := func(withChurn bool) *SimGrid {
		sg, err := HomogeneousGrid(4)
		if err != nil {
			t.Fatal(err)
		}
		if withChurn {
			if err := sg.WithChurn(
				ChurnEvent{T: 10, Node: "node1", Kind: "crash"},
				ChurnEvent{T: 40, Node: "node1", Kind: "rejoin"},
			); err != nil {
				t.Fatal(err)
			}
		}
		return sg
	}
	opts := SimOptions{Duration: 60, Policy: PolicyStatic, Seed: 3}
	calm, err := churnPipeline(t).Simulate(mkGrid(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := churnPipeline(t).Simulate(mkGrid(true), opts)
	if err != nil {
		t.Fatal(err)
	}
	if churned.Done >= calm.Done {
		t.Fatalf("crash did not hurt the static mapping: %d vs %d done", churned.Done, calm.Done)
	}
	if churned.Retries == 0 {
		t.Fatal("no retries recorded for the crashed node's work")
	}
}

// TestWithChurnJoinExcludedFromDeployment: a join-later node must not
// appear in the deployment-time mapping.
func TestWithChurnJoinExcludedFromDeployment(t *testing.T) {
	sg, err := HeterogeneousGrid(1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// node2 is 8× faster but hasn't joined yet: the initial mapping
	// must ignore it. The periodic policy searches every tick, so the
	// join is folded in at the first tick after t=30 (a reactive policy
	// would fold it in at its next triggered search).
	if err := sg.WithChurn(ChurnEvent{T: 30, Node: "node2", Kind: "join"}); err != nil {
		t.Fatal(err)
	}
	rep, err := churnPipeline(t).Simulate(sg, SimOptions{
		Duration: 60, Policy: PolicyPeriodic, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.InitialMapping, "2") {
		t.Fatalf("deployment mapping %s uses the not-yet-joined node", rep.InitialMapping)
	}
	if !strings.Contains(rep.FinalMapping, "2") {
		t.Fatalf("final mapping %s never folded the 8x joined node in", rep.FinalMapping)
	}
}

// TestWithChurnValidation: invalid schedules error cleanly through the
// facade.
func TestWithChurnValidation(t *testing.T) {
	sg, err := HomogeneousGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]ChurnEvent{
		{{T: 5, Node: "node9", Kind: "crash"}},                                       // unknown node
		{{T: 5, Node: "node1", Kind: "rejoin"}},                                      // rejoin before crash
		{{T: 5, Node: "node1", Kind: "crash"}, {T: 6, Node: "node1", Kind: "crash"}}, // overlapping windows
		{{T: 5, Node: "node1", Kind: "explode"}},                                     // unknown kind
		{{T: -1, Node: "node1", Kind: "crash"}},                                      // negative time
	}
	for i, evs := range cases {
		if err := sg.WithChurn(evs...); err == nil {
			t.Fatalf("case %d: invalid schedule accepted", i)
		}
	}
}
