package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gridpipe/internal/workload"
)

// traceCluster builds the standard fixture for trace tests: an 8-node
// LAN grid with a FIFO-queue cluster at the given seed.
func traceCluster(t *testing.T, seed uint64) *Cluster {
	t.Helper()
	c, err := New(homGrid(t, 8), Config{Seed: seed, Admission: AdmitQueue})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A recorded trace replayed through an identically-configured cluster
// must reproduce the generating run's Report bit-identically: per-job
// seeds derive from submit order, and the trace round-trips float64
// arrival times exactly.
func TestTraceReplayReproducesReport(t *testing.T) {
	proc := workload.NewPoisson(0.2, 17)
	mix := []workload.MixEntry{
		{App: "genome", Share: 2, Items: 20},
		{App: "image", Share: 1, Items: 15, Weight: 2},
	}
	tr, err := workload.GenerateTrace(proc, mix, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) < 3 {
		t.Fatalf("trace too short to be interesting: %d events", len(tr))
	}

	run := func(tr workload.Trace) Report {
		c := traceCluster(t, 99)
		if _, err := c.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	orig := run(tr)

	// Record to JSON lines and replay the decoded trace.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := run(back)

	if !reflect.DeepEqual(orig, replay) {
		t.Fatalf("replayed report differs from the generating run:\n orig   %+v\n replay %+v", orig, replay)
	}
}

// SubmitTrace must surface trace problems instead of half-submitting.
func TestSubmitTraceRejectsBadTrace(t *testing.T) {
	c := traceCluster(t, 1)
	if _, err := c.SubmitTrace(workload.Trace{{T: 0, App: "bogus", Items: 5}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	// A valid event whose floor exceeds the 8-node grid fails at submit.
	_, err := c.SubmitTrace(workload.Trace{{T: 0, App: "genome", Items: 5, Floor: 9}})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a floor over the grid must fail cleanly at SubmitTrace, got %v", err)
	}
}

// Jobs arriving at the same virtual instant must admit in submit
// order: the engine breaks event-time ties by schedule sequence, so
// equal-Arrival submissions form a deterministic FIFO. Floors sized to
// the whole grid force full serialization, making admission order
// observable through Admitted times.
func TestSameTimeArrivalsAdmitInSubmitOrder(t *testing.T) {
	run := func() Report {
		c := traceCluster(t, 5)
		for _, name := range []string{"a", "b", "c", "d"} {
			spec := jobOf(name, workload.Genome(), 1, 30)
			spec.FloorNodes = 8 // each job needs every node: one at a time
			if _, err := c.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := run()
	if len(rep.Jobs) != 4 {
		t.Fatalf("got %d job reports", len(rep.Jobs))
	}
	for i, jr := range rep.Jobs {
		if want := []string{"a", "b", "c", "d"}[i]; jr.Name != want {
			t.Fatalf("report order: job %d is %q, want %q", i, jr.Name, want)
		}
		if jr.Done != 30 {
			t.Fatalf("%s: done=%d", jr.Name, jr.Done)
		}
		if i > 0 && rep.Jobs[i].Admitted <= rep.Jobs[i-1].Admitted {
			t.Errorf("%s admitted at %v, not after %s at %v — tie broke out of submit order",
				jr.Name, jr.Admitted, rep.Jobs[i-1].Name, rep.Jobs[i-1].Admitted)
		}
	}

	// And the whole tie-broken run is reproducible.
	if again := run(); !reflect.DeepEqual(rep, again) {
		t.Fatal("same-time-arrival run is not deterministic across repeats")
	}
}
