package gridpipe

import (
	"strings"
	"testing"
)

// A three-event trace: genome twice, image once.
const facadeTrace = `# recorded by gridsim -traffic
{"t":0,"app":"genome","items":30}
{"t":0.4,"app":"image","items":20,"weight":2}
{"t":0.9,"app":"genome","items":25}
`

func TestClusterSubmitTraceSimulated(t *testing.T) {
	g, err := HomogeneousGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{Grid: g, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := cl.SubmitTrace(strings.NewReader(facadeTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("submitted %d jobs, want 3", len(jobs))
	}
	if name, state := jobs[1].Name(), jobs[1].State(); name != "image-1" || state != "pending" {
		t.Fatalf("trace job handle: name %q state %q, want image-1 pending", name, state)
	}
	rep, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantDone := []int{30, 20, 25}
	for i, jr := range rep.Jobs {
		if jr.Done != wantDone[i] || jr.State != "done" {
			t.Fatalf("job %d: done=%d state=%s, want %d done", i, jr.Done, jr.State, wantDone[i])
		}
	}
	if rep.Jobs[1].Name != "image-1" {
		t.Fatalf("trace-derived job name %q, want image-1", rep.Jobs[1].Name)
	}
}

func TestClusterSubmitTraceErrors(t *testing.T) {
	g, err := HomogeneousGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{Grid: g})
	if err != nil {
		t.Fatal(err)
	}
	// ReadTrace refuses an unknown app; the cluster refuses a valid
	// event whose floor exceeds the grid.
	if _, err := cl.SubmitTrace(strings.NewReader(`{"t":0,"app":"bogus","items":5}`)); err == nil {
		t.Fatal("unknown app accepted")
	}
	_, err = cl.SubmitTrace(strings.NewReader(`{"t":0,"app":"genome","items":5,"floor":9}`))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a floor over the 4-node grid must fail cleanly at SubmitTrace, got %v", err)
	}
}
