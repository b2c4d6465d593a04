package cluster

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

// streamGrid is a grid small enough that the stream queues (or is
// rejected, or overlaps) on it, with two background-load steps so the
// reactive arbiter has something to steer away from.
func streamGrid(t *testing.T, nodes int) *grid.Grid {
	t.Helper()
	ns := make([]*grid.Node, nodes)
	for i := range ns {
		ns[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
	}
	ns[0].Load = trace.NewSteps(0, trace.StepChange{T: 100, Load: 0.8})
	ns[nodes/2].Load = trace.NewSteps(0, trace.StepChange{T: 250, Load: 0.6}, trace.StepChange{T: 400, Load: 0})
	g, err := grid.NewGrid(grid.LANLink, ns...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// streamTrace is a ~300-job stream: the benchmark's cluster_stream
// generator over a 500 s horizon.
func streamTrace(t *testing.T) workload.Trace {
	t.Helper()
	tr, err := workload.GenerateTrace(workload.NewPoisson(0.6, 1), workload.DefaultMix(), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reportDigest hashes every field of a Report, floats by bit pattern.
func reportDigest(rep Report) string {
	h := sha256.New()
	bits := math.Float64bits
	for _, j := range rep.Jobs {
		fmt.Fprintf(h, "%s|%d|%x|%x|%x|%x|%x|%d|%d|%x|%x|%x|%d|%s|%s\n",
			j.Name, j.State, bits(j.Weight), bits(j.Arrival), bits(j.Admitted), bits(j.Finished),
			bits(j.Waited), j.Done, j.Lost, bits(j.Makespan), bits(j.Throughput),
			bits(j.MeanLatency), j.Remaps, j.InitialMapping, j.FinalMapping)
	}
	fmt.Fprintf(h, "%x|%d|%d|%x|%x\n", bits(rep.Makespan), rep.Arbitrations, rep.Remaps,
		bits(rep.MinWeightedShare), bits(rep.Jain))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestStreamReportGolden pins the virtual-time output of a ~300-job
// stream, bit for bit, under each admission mode. The digests were
// recorded before the cluster's bookkeeping became O(running tenants)
// (PR 23): any change to the order tenants reach the divider or tasks
// are rescaled in moves an event and shows here.
func TestStreamReportGolden(t *testing.T) {
	tr := streamTrace(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"queue-reactive", Config{Admission: AdmitQueue, Policy: adaptive.PolicyReactive, Seed: 1}, "28b7028431788002b2386e4b"},
		{"admit-all", Config{Admission: AdmitAll, Seed: 1}, "f2b9d0cce7a134e560ead516"},
		{"reject", Config{Admission: AdmitReject, Seed: 1}, "5ae70317f4178905fb144c9f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(streamGrid(t, 12), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.SubmitTrace(tr); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			states := map[JobState]int{}
			for _, j := range rep.Jobs {
				states[j.State]++
			}
			t.Logf("%d jobs %v, makespan %v, %d arbitrations, %d remaps", len(rep.Jobs), states,
				rep.Makespan, rep.Arbitrations, rep.Remaps)
			if got := reportDigest(rep); got != tc.want {
				t.Errorf("report digest %s, want %s", got, tc.want)
			}
		})
	}
}
