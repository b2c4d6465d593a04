package gridpipe

import (
	"context"
	"strings"
	"testing"
)

// A three-event trace: genome twice, image once, arrivals within the
// first second so live replay at high speedup stays fast.
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
	if _, err := cl.SubmitTrace(strings.NewReader(`{"t":0,"app":"bogus","items":5}`)); err == nil {
		t.Fatal("unknown app accepted")
	}
	live, err := NewCluster(ClusterConfig{MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.SubmitTrace(strings.NewReader(facadeTrace)); err == nil {
		t.Fatal("SubmitTrace on a grid-less cluster accepted")
	}
}

// Live replay: every trace event runs a fresh pipeline against the
// shared worker budget, open loop, in scaled wall-clock time.
func TestClusterProcessTraceNeedsBuild(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ProcessTrace(context.Background(), strings.NewReader(facadeTrace), ReplayOptions{}); err == nil {
		t.Fatal("ProcessTrace without a Build callback accepted")
	}
}

func TestClusterProcessTraceLive(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{MaxWorkers: 8, Interval: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	results, err := cl.ProcessTrace(context.Background(), strings.NewReader(facadeTrace), ReplayOptions{
		Speedup: 50,
		Build: func(app string, items int) (*Pipeline, []any, error) {
			p := livePipeline(t)
			inputs := make([]any, items)
			for i := range inputs {
				inputs[i] = i
			}
			return p, inputs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	wantItems := []int{30, 20, 25}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("event %d (%s): %v", i, r.App, r.Err)
		}
		if r.Index != i || len(r.Outputs) != wantItems[i] {
			t.Fatalf("event %d: index=%d outputs=%d, want %d", i, r.Index, len(r.Outputs), wantItems[i])
		}
		for j, v := range r.Outputs {
			if v != j {
				t.Fatalf("event %d: out[%d]=%v (order broken)", i, j, v)
			}
		}
	}
}

// A cancelled context stops launching and reports the unlaunched tail.
func TestClusterProcessTraceCancel(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Gaps are huge in wall time at speedup 1e-3; the pre-cancelled
	// context must abandon the tail instead of sleeping.
	results, err := cl.ProcessTrace(ctx, strings.NewReader(facadeTrace), ReplayOptions{
		Speedup: 1e-3,
		Build: func(app string, items int) (*Pipeline, []any, error) {
			return livePipeline(t), []any{1}, nil
		},
	})
	if err == nil {
		t.Fatal("cancelled replay reported no error")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Events after the first gap must carry the context error.
	for _, r := range results[1:] {
		if r.Err == nil {
			t.Fatalf("unlaunched event %d has no error", r.Index)
		}
	}
}
