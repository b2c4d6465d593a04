package gridpipe

import (
	"strings"
	"testing"
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
	if _, err := NewCluster(ClusterConfig{Grid: g, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
	if _, err := NewCluster(ClusterConfig{}); err == nil || !strings.Contains(err.Error(), "Grid") {
		t.Fatalf("NewCluster without a Grid must error, got %v", err)
	}
	for _, adm := range []string{AdmissionReject, AdmissionOverAdmit} {
		if _, err := NewCluster(ClusterConfig{Grid: g, Admission: adm}); err != nil {
			t.Fatalf("admission mode %q: %v", adm, err)
		}
	}
	// A job pinned to nodes {2, 3} runs there and nowhere else.
	if _, err := cl.Submit(simPipeline(t), JobOpts{Items: 20, PinNodes: []int{2, 3}}); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].Done != 20 {
		t.Fatalf("pinned job: %+v", rep.Jobs)
	}
	for _, m := range []string{rep.Jobs[0].InitialMapping, rep.Jobs[0].FinalMapping} {
		nodes := strings.FieldsFunc(m, func(r rune) bool { return r < '0' || r > '9' })
		if len(nodes) == 0 {
			t.Fatalf("mapping %q names no node", m)
		}
		for _, n := range nodes {
			if n != "2" && n != "3" {
				t.Fatalf("mapping %q uses node %s outside the pinned {2, 3}", m, n)
			}
		}
	}
	if _, err := cl.Run(); err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("a second Run must error, got %v", err)
	}
}
