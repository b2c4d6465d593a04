package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/sim"
	"gridpipe/internal/workload"
)

// tenantOrders runs the cluster and returns the distinct successive
// tenant lists the divider was given, sampled every 0.05 virtual
// seconds from the round buffer.
func tenantOrders(t *testing.T, c *Cluster) []string {
	t.Helper()
	var seen []string
	tick := sim.NewTicker(c.eng, 0.05, func(float64) {
		names := make([]string, len(c.tenantBuf))
		for i, tn := range c.tenantBuf {
			names[i] = tn.Name
		}
		s := strings.Join(names, " ")
		if len(seen) == 0 || seen[len(seen)-1] != s {
			seen = append(seen, s)
		}
	})
	defer tick.Stop()
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return seen
}

// The divider sees tenants in job-index (Submit) order — the order
// mappings are searched and reservations charged in — whatever order
// the jobs arrived or were admitted in. Jobs are submitted in reverse
// arrival order, so the two differ: under AdmitAll admission follows
// arrival; under AdmitQueue j3 leaves the queue before j0.
func TestTenantOrderIsSubmitOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		adm      Admission
		arrivals []float64 // by job index
		floor    int
		want     []string
	}{
		{"admit-all", AdmitAll, []float64{2, 1, 0}, 1,
			[]string{"j2", "j1 j2", "j0 j1 j2", "j1 j2", "j1"}},
		{"queue", AdmitQueue, []float64{3, 0, 1, 2}, 2,
			[]string{"j1", "j1 j2", "j2 j3", "j0 j3", "j0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(homGrid(t, 4), Config{Seed: 3, Admission: tc.adm})
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range tc.arrivals {
				spec := jobOf(fmt.Sprintf("j%d", i), workload.Genome(), at, 60)
				spec.FloorNodes = tc.floor
				if _, err := c.Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
			if got := tenantOrders(t, c); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("divider tenant orders %q, want %q", got, tc.want)
			}
		})
	}
}

// What the cluster holds follows the tenants running now, not the jobs
// submitted so far: through a 400-job stream the contention ledger
// lists only executors of running jobs, and after the run nothing but
// the report rows is left.
func TestClusterStateFollowsRunningTenants(t *testing.T) {
	const jobs = 400
	c, err := New(homGrid(t, 8), Config{Seed: 9, Policy: adaptive.PolicyReactive})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit(jobOf(fmt.Sprintf("j%d", i), workload.Genome(), float64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	checks, peak := 0, 0
	tick := sim.NewTicker(c.eng, 0.5, func(now float64) {
		checks++
		live := map[*exec.Executor]bool{}
		for _, j := range c.jobs {
			if (j.state == JobRunning) != (j.ex != nil) {
				t.Fatalf("t=%v: job %s is %s with executor %v", now, j.spec.Name, j.state, j.ex != nil)
			}
			if j.state == JobRunning {
				live[j.ex] = true
			}
		}
		if len(c.running) != len(live) {
			t.Fatalf("t=%v: running list has %d jobs, %d are in JobRunning", now, len(c.running), len(live))
		}
		if len(live) > peak {
			peak = len(live)
		}
		for n := 0; n < c.g.NumNodes(); n++ {
			serving := c.shares.Serving(grid.NodeID(n))
			if len(serving) > len(live) {
				t.Fatalf("t=%v node %d: ledger lists %d executors, %d jobs running", now, n, len(serving), len(live))
			}
			for _, e := range serving {
				if !live[e] {
					t.Fatalf("t=%v node %d: ledger lists the executor of a job that is not running", now, n)
				}
			}
		}
	})
	defer tick.Stop()
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checks < jobs || peak < 2 || peak > jobs/10 {
		t.Fatalf("%d checks saw at most %d concurrent tenants; the stream should overlap a few at a time", checks, peak)
	}
	for _, jr := range rep.Jobs {
		if jr.State != JobDone || jr.Done != 10 || jr.MeanLatency <= 0 || jr.FinalMapping == "" {
			t.Fatalf("bad report row %+v", jr)
		}
	}
	if len(c.running) != 0 {
		t.Fatalf("%d jobs left on the running list", len(c.running))
	}
	for n := 0; n < c.g.NumNodes(); n++ {
		if k := len(c.shares.Serving(grid.NodeID(n))); k != 0 {
			t.Fatalf("node %d: ledger still lists %d executors", n, k)
		}
	}
	for _, j := range c.jobs {
		if j.ex != nil {
			t.Fatalf("finished job %s retains its executor", j.spec.Name)
		}
		if j.id < len(c.div.states) && c.div.states[j.id] != nil {
			t.Fatalf("divider still memoizes finished job %s", j.spec.Name)
		}
	}
}
