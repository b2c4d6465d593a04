package gridpipe

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func simPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(
		Stage("parse", nil, Weight(0.02), Replicable()),
		Stage("align", nil, Weight(0.3), Replicable()),
		Stage("score", nil, Weight(0.05), Replicable()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClusterSimulatedRun(t *testing.T) {
	g, err := HomogeneousGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{Grid: g, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(simPipeline(t), JobOpts{Name: "a", Items: 200, CV: 0.3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(simPipeline(t), JobOpts{Name: "b", Items: 150, CV: 0.3, Arrival: 3}); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.Jobs[0].Done != 200 || rep.Jobs[1].Done != 150 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.Makespan <= 0 || rep.Arbitrations < 2 {
		t.Fatalf("makespan=%v arbitrations=%d", rep.Makespan, rep.Arbitrations)
	}
	for _, jr := range rep.Jobs {
		if jr.State != "done" {
			t.Fatalf("job %s state=%s", jr.Name, jr.State)
		}
	}
}

func TestClusterAdmissionErrors(t *testing.T) {
	g, err := HomogeneousGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(simPipeline(t), JobOpts{Items: 10, FloorNodes: 9})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("floor over the grid must fail cleanly at Submit, got %v", err)
	}
	if _, err := cl.Submit(simPipeline(t), JobOpts{Items: 0}); err == nil {
		t.Fatal("a job without items must be rejected")
	}
	if _, err := NewCluster(ClusterConfig{Grid: g, Admission: "bogus"}); err == nil {
		t.Fatal("unknown admission mode must be rejected")
	}
	noGrid, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noGrid.Submit(simPipeline(t), JobOpts{Items: 1}); err == nil {
		t.Fatal("Submit without a grid must error")
	}
	if _, err := noGrid.Run(); err == nil {
		t.Fatal("Run without a grid must error")
	}
}

func livePipeline(t *testing.T) *Pipeline {
	t.Helper()
	work := func(ctx context.Context, v any) (any, error) {
		time.Sleep(200 * time.Microsecond)
		return v, nil
	}
	p, err := New(
		Stage("a", work, Weight(0.1), Replicable(), Replicas(1)),
		Stage("b", work, Weight(0.3), Replicable(), Replicas(1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterLiveConcurrentProcess runs two live tenants on one
// cluster budget concurrently: both must complete in order, through
// their own adaptive controllers capped by the shared budget.
func TestClusterLiveConcurrentProcess(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Policy:     PolicyReactive,
		MaxWorkers: 8,
		Interval:   0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]any, 60)
	for i := range inputs {
		inputs[i] = i
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	outs := make([][]any, 2)
	for k := 0; k < 2; k++ {
		p := livePipeline(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[k], errs[k] = cl.Process(context.Background(), p, inputs, JobOpts{
				Name: fmt.Sprintf("tenant%d", k), Weight: 1,
			})
		}()
	}
	wg.Wait()
	for k := 0; k < 2; k++ {
		if errs[k] != nil {
			t.Fatalf("tenant %d: %v", k, errs[k])
		}
		if len(outs[k]) != len(inputs) {
			t.Fatalf("tenant %d: %d outputs for %d inputs", k, len(outs[k]), len(inputs))
		}
		for i, v := range outs[k] {
			if v != i {
				t.Fatalf("tenant %d: out[%d]=%v (order broken)", k, i, v)
			}
		}
	}
}

// TestClusterLiveTenantThresholds pins that a live tenant's controller
// runs with the cluster's policy and thresholds, periods converted from
// seconds, and the shared budget.
func TestClusterLiveTenantThresholds(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Policy:         PolicyReactive,
		MaxWorkers:     4,
		Interval:       0.02,
		HysteresisGain: 1.3,
		Cooldown:       0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := livePipeline(t)
	if _, err := cl.Process(context.Background(), p, []any{0, 1, 2}, JobOpts{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	got := *p.liveCfg
	if got.Policy.String() != PolicyReactive || got.Interval != 20*time.Millisecond ||
		got.HysteresisGain != 1.3 || got.Cooldown != 100*time.Millisecond || got.MaxWorkers != 4 {
		t.Fatalf("live tenant config %+v", got)
	}
}

// TestStaticClusterBudgetsArmedTenant pins that a tenant which armed
// its own live adaptation still runs inside a static cluster's shared
// worker budget: its policy is its own, the budget is the cluster's.
func TestStaticClusterBudgetsArmedTenant(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Policy: PolicyStatic, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := livePipeline(t)
	if err := p.WithLiveAdaptive(PolicyPeriodic); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Process(context.Background(), p, []any{0, 1, 2}, JobOpts{Weight: 1}); err != nil {
		t.Fatal(err)
	}
	got := *p.liveCfg
	if got.Policy.String() != PolicyPeriodic || got.BudgetCap == nil || got.MaxWorkers != 2 {
		t.Fatalf("armed tenant of a static cluster: policy %v, BudgetCap set %t, MaxWorkers %d; want periodic, true, 2",
			got.Policy, got.BudgetCap != nil, got.MaxWorkers)
	}
}

// TestPipelineConcurrentUseGuard pins the facade fix: two concurrent
// Process calls on one *Pipeline must not corrupt the single-use live
// state — exactly one wins, the other gets a clear error.
func TestPipelineConcurrentUseGuard(t *testing.T) {
	p := livePipeline(t)
	inputs := make([]any, 20)
	for i := range inputs {
		inputs[i] = i
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = p.Process(context.Background(), inputs)
		}()
	}
	wg.Wait()
	okCount, errCount := 0, 0
	for _, err := range errs {
		if err == nil {
			okCount++
		} else if strings.Contains(err.Error(), "single-use") {
			errCount++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okCount != 1 || errCount != 3 {
		t.Fatalf("want exactly 1 success and 3 single-use errors, got %d/%d", okCount, errCount)
	}
}
