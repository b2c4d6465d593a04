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
//
// It also pins the divider's work on the same three streams. A round's
// tenants are virtual-time output, so searches + replays is fixed by
// the digest; how many of them are searches is the memo key's doing
// (recorded when the key became the lease plus the loads inside it,
// PR 24; the whole-grid key before it searched 5 755, 11 101 and
// 4 418). A key that stops recognising a repeated search shows here as
// a rise, not only as a slower benchmark.
func TestStreamReportGolden(t *testing.T) {
	tr := streamTrace(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
		div  DividerStats
	}{
		{"queue-reactive", Config{Admission: AdmitQueue, Policy: adaptive.PolicyReactive, Seed: 1}, "28b7028431788002b2386e4b", DividerStats{Rounds: 674, Searches: 3654, Cached: 3892}},
		{"admit-all", Config{Admission: AdmitAll, Seed: 1}, "f2b9d0cce7a134e560ead516", DividerStats{Rounds: 613, Searches: 10937, Cached: 15738}},
		{"reject", Config{Admission: AdmitReject, Seed: 1}, "5ae70317f4178905fb144c9f", DividerStats{Rounds: 499, Searches: 3103, Cached: 1315}},
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
			div := c.DividerStats()
			t.Logf("divider: %+v", div)
			if div.Rounds != tc.div.Rounds || div.Searches+div.Cached != tc.div.Searches+tc.div.Cached {
				t.Errorf("divider ran %d rounds over %d tenant placements, want %d over %d",
					div.Rounds, div.Searches+div.Cached, tc.div.Rounds, tc.div.Searches+tc.div.Cached)
			}
			if div.Searches > tc.div.Searches {
				t.Errorf("divider searched %d tenant placements, at most %d when recorded: the memo key misses searches it used to replay",
					div.Searches, tc.div.Searches)
			}
		})
	}
}
