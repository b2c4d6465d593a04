package workload

import (
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

func TestRunSimValidation(t *testing.T) {
	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	app := Balanced(2, 0.1, 0)
	if _, err := RunSim(g, app, model.OneToOne(2), SimOptions{Items: 10, Duration: 10}); err == nil {
		t.Fatal("both Items and Duration accepted")
	}
	if _, err := RunSim(g, app, model.OneToOne(2), SimOptions{}); err == nil {
		t.Fatal("neither Items nor Duration rejected")
	}
	if _, err := RunSim(g, app, model.FromNodes(0, 5), SimOptions{Items: 10}); err == nil {
		t.Fatal("a mapping onto a missing node accepted")
	}
}

// With every node still to join, there is nowhere to deploy.
func TestDeployNeedsAnAvailableNode(t *testing.T) {
	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := grid.NewChurnSchedule(grid.Join("node0", 5), grid.Join("node1", 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetChurn(cs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Deploy(g, Genome().Spec, 1); err == nil {
		t.Fatal("deployed onto a grid with no node up")
	}
}

func TestRunSimProducesOutcome(t *testing.T) {
	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	app := Balanced(2, 0.1, 0)
	out, err := RunSim(g, app, model.OneToOne(2), SimOptions{Policy: adaptive.PolicyStatic, Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	if out.Done != 50 || out.Makespan <= 0 || out.Exec == nil {
		t.Fatalf("outcome: %+v", out)
	}
}

func TestDeployIsValid(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 2, 4}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	app := Genome()
	m, _, err := Deploy(g, app.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(app.Spec.NumStages(), g.NumNodes()); err != nil {
		t.Fatal(err)
	}
}
