package gridpipe

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func testStages(fail bool) []StageDef {
	return []StageDef{
		Stage("double", func(ctx context.Context, v any) (any, error) {
			return v.(int) * 2, nil
		}, Weight(0.05)),
		Stage("inc", func(ctx context.Context, v any) (any, error) {
			if fail && v.(int) == 6 {
				return nil, errors.New("boom")
			}
			return v.(int) + 1, nil
		}, Weight(0.1), Replicable(), Replicas(3)),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("no stages accepted")
	}
	if _, err := New(Stage("", nil)); err == nil {
		t.Fatal("unnamed stage accepted")
	}
	if _, err := New(Stage("x", nil, Weight(-1))); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestLiveProcess(t *testing.T) {
	p, err := New(testStages(false)...)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 2 {
		t.Fatalf("NumStages = %d", p.NumStages())
	}
	in := []any{1, 2, 3, 4}
	out, err := p.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := (i+1)*2 + 1; v.(int) != want {
			t.Fatalf("out[%d] = %v, want %d", i, v, want)
		}
	}
	st := p.LiveStats()
	if len(st) != 2 || st[0].Count != 4 {
		t.Fatalf("LiveStats = %+v", st)
	}
	if st[1].Replicas != 3 {
		t.Fatalf("replicas = %d", st[1].Replicas)
	}
}

func TestLiveErrorPropagates(t *testing.T) {
	p, err := New(testStages(true)...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Process(context.Background(), []any{1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "inc") {
		t.Fatalf("err = %v", err)
	}
}

func TestLiveSingleUse(t *testing.T) {
	p, err := New(testStages(false)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err == nil {
		t.Fatal("second live run accepted")
	}
}

func TestSimulationOnlyPipelineRejectsLive(t *testing.T) {
	p, err := New(Stage("model-only", nil, Weight(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), []any{1}); err == nil {
		t.Fatal("nil-fn stage ran live")
	}
}

func TestSetReplicasRequiresLive(t *testing.T) {
	p, err := New(testStages(false)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicas(1, 2); err == nil {
		t.Fatal("SetReplicas before Run accepted")
	}
}

func TestRunStreaming(t *testing.T) {
	p, err := New(testStages(false)...)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 3)
	in <- 1
	in <- 2
	in <- 3
	close(in)
	out, errs, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for range out {
		count++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("streamed %d outputs", count)
	}
	// SetReplicas works after Run started... pipeline already done but
	// the call should at least be accepted.
	if err := p.SetReplicas(1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateOnHomogeneousGrid(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.1), OutBytes(1e5)),
		Stage("b", nil, Weight(0.1), OutBytes(1e5)),
		Stage("c", nil, Weight(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := HomogeneousGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	rep, err := p.Simulate(g, SimOptions{Items: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 500 || rep.Makespan <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	// One stage per node: ~10 items/s.
	if rep.Throughput < 8 || rep.Throughput > 10.5 {
		t.Fatalf("throughput = %v, want ~10", rep.Throughput)
	}
	if rep.PredictedThroughput < 9 {
		t.Fatalf("predicted = %v", rep.PredictedThroughput)
	}
	if rep.InitialMapping == "" || rep.FinalMapping == "" {
		t.Fatal("mappings missing from report")
	}
}

func TestSimulateAdaptiveOnHeterogeneousGrid(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.2), Replicable()),
		Stage("b", nil, Weight(0.2), Replicable()),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := HeterogeneousGrid(1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(g, SimOptions{Duration: 60, Policy: PolicyReactive, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done == 0 {
		t.Fatal("nothing completed")
	}
	if rep.MeanLatency <= 0 {
		t.Fatalf("mean latency = %v", rep.MeanLatency)
	}
}

func TestSimulateOptionValidation(t *testing.T) {
	p, _ := New(Stage("a", nil, Weight(0.1)))
	g, _ := HomogeneousGrid(2)
	if _, err := p.Simulate(nil, SimOptions{Items: 1}); err == nil {
		t.Fatal("nil grid accepted")
	}
	if _, err := p.Simulate(g, SimOptions{}); err == nil {
		t.Fatal("neither Items nor Duration rejected")
	}
	if _, err := p.Simulate(g, SimOptions{Items: 1, Duration: 1}); err == nil {
		t.Fatal("both Items and Duration accepted")
	}
	if _, err := p.Simulate(g, SimOptions{Items: 1, Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestPolicyNames pins that every public policy name resolves to the
// controller policy of that name, and that "" means static.
func TestPolicyNames(t *testing.T) {
	for _, name := range []string{PolicyStatic, PolicyPeriodic, PolicyReactive, PolicyPredictive, PolicyOracle} {
		if pol, err := parsePolicy(name); err != nil || pol.String() != name {
			t.Errorf("parsePolicy(%q) = %v, %v", name, pol, err)
		}
	}
	if pol, err := parsePolicy(""); err != nil || pol.String() != PolicyStatic {
		t.Errorf(`parsePolicy("") = %v, %v; want static`, pol, err)
	}
	if _, err := parsePolicy("bogus"); err == nil || !strings.HasPrefix(err.Error(), "gridpipe: ") {
		t.Errorf(`parsePolicy("bogus") error %v, want one prefixed "gridpipe: "`, err)
	}
}

func TestGridFromJSON(t *testing.T) {
	cfg := `{"nodes":[{"name":"a","speed":1},{"name":"b","speed":2}]}`
	g, err := GridFromJSON(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if !strings.Contains(g.Describe(), "2 nodes") {
		t.Fatalf("Describe:\n%s", g.Describe())
	}
	if _, err := GridFromJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestPredictMapping(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.1)),
		Stage("b", nil, Weight(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := HeterogeneousGrid(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	mapping, thr, err := p.PredictMapping(g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mapping, "1") {
		t.Fatalf("mapping %q should use the fast node", mapping)
	}
	if thr < 19 {
		t.Fatalf("predicted throughput = %v, want 20", thr)
	}
	// With the fast node saturated, prediction should shift.
	_, thrLoaded, err := p.PredictMapping(g, []float64{0, 0.9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if thrLoaded >= thr {
		t.Fatalf("loaded prediction %v should drop below %v", thrLoaded, thr)
	}
}

// Simulate and PredictMapping share the pipeline's stage graph: two
// goroutines calling them on one Pipeline only read it (run under
// -race), and each gets what it gets alone.
func TestSimulateAndPredictMappingShareOnePipeline(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.1), OutBytes(1e5), Replicable()),
		Stage("b", nil, Weight(0.2), OutBytes(1e5), Replicable()),
		Stage("c", nil, Weight(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	newGrid := func() *SimGrid {
		g, err := HeterogeneousGrid(1, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	opts := SimOptions{Items: 200, Seed: 1}
	wantRep, err := p.Simulate(newGrid(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantMap, wantThr, err := p.PredictMapping(newGrid(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	simGrid, mapGrid := newGrid(), newGrid()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if rep, err := p.Simulate(simGrid, opts); err != nil || rep != wantRep {
				t.Errorf("concurrent Simulate %+v (err %v), want %+v", rep, err, wantRep)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if m, thr, err := p.PredictMapping(mapGrid, nil, 1); err != nil || m != wantMap || thr != wantThr {
				t.Errorf("concurrent PredictMapping %s %v (err %v), want %s %v", m, thr, err, wantMap, wantThr)
				return
			}
		}
	}()
	wg.Wait()
}

func TestSpec(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.3), OutBytes(100), Replicable()),
		Stage("b", nil, Weight(0.1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	info := p.Spec()
	if len(info) != 2 || info[0].Name != "a" || info[0].Weight != 0.3 ||
		info[0].OutBytes != 100 || !info[0].Replicable || info[1].Replicable {
		t.Fatalf("Spec = %+v", info)
	}
}

func TestSimulateKillRestartOption(t *testing.T) {
	p, err := New(
		Stage("a", nil, Weight(0.5), Replicable()),
		Stage("b", nil, Weight(0.5), Replicable()),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := HomogeneousGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Simulate(g, SimOptions{Duration: 60, Policy: PolicyPeriodic, Seed: 5, KillRestart: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done == 0 {
		t.Fatal("nothing completed")
	}
}
