package sched

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

func het(t *testing.T, speeds ...float64) *grid.Grid {
	t.Helper()
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nodesUsed counts the distinct nodes m places a stage on.
func nodesUsed(m model.Mapping) int {
	seen := map[grid.NodeID]bool{}
	for _, nodes := range m.Assign {
		for _, n := range nodes {
			seen[n] = true
		}
	}
	return len(seen)
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	g := het(t, 1, 4)
	spec := model.Balanced(2, 0.1, 0)
	m, pred, err := (Exhaustive{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both stages on the 4x node: 0.2/4 = 0.05 s/item → 20/s.
	if math.Abs(pred.Throughput-20) > 1e-9 {
		t.Fatalf("throughput = %v (%s), want 20", pred.Throughput, m)
	}
	if !m.Equal(model.FromNodes(1, 1)) {
		t.Fatalf("mapping = %s, want (1,1)", m)
	}
}

func TestExhaustiveRefusesExplosion(t *testing.T) {
	g := het(t, 1, 1, 1, 1, 1, 1, 1, 1)
	spec := model.Balanced(30, 0.1, 0)
	if _, _, err := (Exhaustive{}).Search(g, spec, nil); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestExhaustiveRejectsWrongLoadCount(t *testing.T) {
	g := het(t, 1, 1)
	if _, _, err := (Exhaustive{}).Search(g, model.Balanced(2, 0.1, 0), []float64{0.1}); err == nil {
		t.Fatal("one load estimate for two nodes accepted")
	}
}

// Every strategy names itself distinctly, and SearchWith runs one
// without a scratch path (ForLatency) through its own SearchAvail.
func TestSearchersNamesAndScratchFallback(t *testing.T) {
	names := map[string]bool{}
	for _, s := range availStrategies() {
		if names[s.Name()] {
			t.Errorf("two strategies named %q", s.Name())
		}
		names[s.Name()] = true
	}
	g := het(t, 1, 2, 1)
	spec := model.Balanced(3, 0.1, 0)
	s := ForLatency{Rate: 1}
	wantM, wantP, err := s.Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotP, err := SearchWith(NewScratch(), s, g, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !gotM.Equal(wantM) || gotP.Throughput != wantP.Throughput {
		t.Fatalf("SearchWith %s %v, Search %s %v", gotM, gotP.Throughput, wantM, wantP.Throughput)
	}
}

func TestContiguousDPBalancedHomogeneous(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.1, 0)
	m, pred, err := (ContiguousDP{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One stage per node is optimal and contiguous.
	if math.Abs(pred.Throughput-10) > 1e-9 {
		t.Fatalf("throughput = %v (%s), want 10", pred.Throughput, m)
	}
	if used := nodesUsed(m); used != 3 {
		t.Fatalf("expected all 3 nodes used, got %d (%s)", used, m)
	}
}

func TestContiguousDPRespectsContiguity(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.1},
		{Name: "b", Work: 0.3},
		{Name: "c", Work: 0.1},
	}}
	m, _, err := (ContiguousDP{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Groups must be contiguous: once the node changes it never goes
	// back.
	seen := map[grid.NodeID]bool{}
	var last grid.NodeID = -1
	for _, ns := range m.Assign {
		n := ns[0]
		if n != last {
			if seen[n] {
				t.Fatalf("mapping %s is not contiguous", m)
			}
			seen[n] = true
			last = n
		}
	}
}

func TestContiguousDPMatchesExhaustiveOnChainFriendlyCase(t *testing.T) {
	// Heavy middle stage, heterogeneous nodes, no communication cost:
	// DP should find the same bottleneck value as exhaustive whenever
	// the optimum happens to be contiguous.
	g := het(t, 1, 2)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.1},
		{Name: "b", Work: 0.1},
		{Name: "c", Work: 0.4},
	}}
	_, dpPred, err := (ContiguousDP{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, exPred, err := (Exhaustive{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dpPred.Throughput-exPred.Throughput) > 1e-9 {
		t.Fatalf("DP %v vs exhaustive %v", dpPred.Throughput, exPred.Throughput)
	}
}

func TestContiguousDPUsesLoadEstimates(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	// Node 0 heavily loaded: both stages should flee to node 1.
	m, _, err := (ContiguousDP{}).Search(g, spec, []float64{0.9, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range m.Assign {
		if ns[0] != 1 {
			t.Fatalf("stage on loaded node: %s", m)
		}
	}
}

func TestGreedyBalancesLoad(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.3},
		{Name: "b", Work: 0.2},
		{Name: "c", Work: 0.1},
	}}
	m, pred, err := (Greedy{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// LPT: 0.3 → node A; 0.2 → node B; 0.1 → node B. Bottleneck 0.3.
	if math.Abs(pred.Throughput-1/0.3) > 1e-9 {
		t.Fatalf("throughput = %v (%s), want %v", pred.Throughput, m, 1/0.3)
	}
}

func TestGreedyPrefersFastNodes(t *testing.T) {
	g := het(t, 1, 10)
	spec := model.Balanced(4, 0.1, 0)
	m, _, err := (Greedy{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	onFast := 0
	for _, ns := range m.Assign {
		if ns[0] == 1 {
			onFast++
		}
	}
	if onFast < 3 {
		t.Fatalf("greedy should pack most stages on the 10x node: %s", m)
	}
}

func TestLocalSearchAtLeastAsGoodAsGreedy(t *testing.T) {
	g := het(t, 1, 2, 3)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.2},
		{Name: "b", Work: 0.5},
		{Name: "c", Work: 0.1},
		{Name: "d", Work: 0.4},
	}}
	_, gp, err := (Greedy{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, lp, err := (LocalSearch{Seed: 1}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Throughput < gp.Throughput-1e-9 {
		t.Fatalf("local search (%v) worse than its greedy start (%v)", lp.Throughput, gp.Throughput)
	}
}

func TestLocalSearchNearExhaustiveOnSmallCase(t *testing.T) {
	g := het(t, 1, 2)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.1},
		{Name: "b", Work: 0.2},
		{Name: "c", Work: 0.3},
	}}
	_, ex, err := (Exhaustive{}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ls, err := (LocalSearch{Seed: 7, Restarts: 5}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Throughput < 0.95*ex.Throughput {
		t.Fatalf("local search %v far from optimum %v", ls.Throughput, ex.Throughput)
	}
}

func TestLocalSearchDeterministicForSeed(t *testing.T) {
	g := het(t, 1, 2, 3)
	spec := model.Balanced(5, 0.1, 1000)
	m1, p1, err := (LocalSearch{Seed: 42}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, p2, err := (LocalSearch{Seed: 42}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.Equal(m2) || p1.Throughput != p2.Throughput {
		t.Fatal("local search not deterministic for fixed seed")
	}
}

func TestSearchersRejectEmptyPipeline(t *testing.T) {
	g := het(t, 1)
	empty := model.PipelineSpec{}
	for _, s := range []Searcher{Exhaustive{}, ContiguousDP{}, Greedy{}, LocalSearch{}} {
		if _, _, err := s.Search(g, empty, nil); err == nil {
			t.Errorf("%s accepted empty pipeline", s.Name())
		}
	}
}

func TestSearcherNames(t *testing.T) {
	names := map[string]Searcher{
		"exhaustive":    Exhaustive{},
		"contiguous-dp": ContiguousDP{},
		"greedy":        Greedy{},
		"local-search":  LocalSearch{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestImproveWithReplication(t *testing.T) {
	g := het(t, 1, 1, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "light", Work: 0.05},
		{Name: "heavy", Work: 0.3, Replicable: true},
	}}
	start := model.FromNodes(0, 1)
	m, pred, err := ImproveWithReplication(g, spec, start, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Assign[1]) < 2 {
		t.Fatalf("bottleneck stage not replicated: %s", m)
	}
	base, _ := model.Predict(g, spec, start, nil)
	if pred.Throughput <= base.Throughput {
		t.Fatalf("replication did not help: %v vs %v", pred.Throughput, base.Throughput)
	}
}

func TestImproveWithReplicationRespectsReplicableFlag(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "light", Work: 0.05},
		{Name: "stateful", Work: 0.3, Replicable: false},
	}}
	start := model.FromNodes(0, 1)
	m, _, err := ImproveWithReplication(g, spec, start, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Assign[1]) != 1 {
		t.Fatalf("non-replicable stage was replicated: %s", m)
	}
}

func TestImproveWithReplicationHonoursMaxReplicas(t *testing.T) {
	g := het(t, 1, 1, 1, 1, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "heavy", Work: 1, Replicable: true},
	}}
	m, _, err := ImproveWithReplication(g, spec, model.FromNodes(0), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Assign[0]) > 3 {
		t.Fatalf("replica cap exceeded: %s", m)
	}
}

func TestImproveWithReplicationStopsWhenLinkBound(t *testing.T) {
	// Replication cannot beat a link bottleneck on input traffic; the
	// loop must terminate and return a finite mapping.
	g := het(t, 1, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 1e-3, Bandwidth: 1e4}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLink(0, 2, grid.Link{Latency: 1e-3, Bandwidth: 1e4}); err != nil {
		t.Fatal(err)
	}
	spec := model.PipelineSpec{
		Stages:  []model.StageSpec{{Name: "h", Work: 0.5, Replicable: true}},
		InBytes: 1e4,
		Source:  0,
		Sink:    0,
	}
	m, pred, err := ImproveWithReplication(g, spec, model.FromNodes(1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Throughput <= 0 || m.NumStages() != 1 {
		t.Fatalf("bad result: %v %s", pred.Throughput, m)
	}
}
