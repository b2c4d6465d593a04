package bench

import (
	"fmt"
	"sort"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

func init() {
	register(Experiment{ID: "F12", Title: "Two tenants, staggered arrival: arbitrated adaptive vs static halves", Run: runF12})
	register(Experiment{ID: "F13", Title: "Open job stream: admission queue vs over-admission collapse", Run: runF13})
}

// clusterJob builds the F12/F13 job description.
func clusterJob(name string, app workload.App, arrival float64, items int) model.JobSpec {
	return model.JobSpec{
		Name:    name,
		Spec:    app.Spec,
		Arrival: arrival,
		Items:   items,
		CV:      app.CV,
	}
}

// F12: a genome job owns an 8-node grid, a longer image job arrives
// at t=15, and at t=40 a 90% background-load step hits node 0. Static
// halves pins each tenant to a fixed half of the grid for its whole
// life — the partitioning a cluster without an arbiter deploys.
// Arbitration gives the early tenant the full grid, shrinks it to a
// fair share when the second arrives, and folds freed nodes back as
// tenants finish; the adaptive variant additionally re-divides when a
// tenant's observed throughput degrades — here, steering leases off
// the loaded node. Makespan drops and the weighted max-min floor
// rises.
func runF12(seed uint64) *Result {
	const (
		items1  = 600
		items2  = 900
		arrive2 = 15.0
		spikeAt = 40.0
		level   = 0.9
	)
	type variant struct {
		name   string
		policy adaptive.Policy
		pinned bool
	}
	variants := []variant{
		{"static-halves", adaptive.PolicyStatic, true},
		{"arbitrated", adaptive.PolicyStatic, false},
		{"arbitrated-adaptive", adaptive.PolicyReactive, false},
	}

	res := &Result{ID: "F12", Title: "arbitrated adaptive vs static halves"}
	tb := stats.NewTable("F12 two tenants on 8 nodes (genome@0 ×600, image@15 ×900, spike on node0 at t=40)",
		"variant", "job", "admit", "finish", "makespan", "thr", "remaps")
	sum := stats.NewTable("F12 summary",
		"variant", "total makespan", "min weighted share", "Jain", "arbitrations")
	for _, v := range variants {
		c := must(cluster.New(spikeGrid(8, 0, spikeAt, level), cluster.Config{Policy: v.policy, Seed: seed}))
		j1 := clusterJob("genome", workload.Genome(), 0, items1)
		j2 := clusterJob("image", workload.Image(), arrive2, items2)
		if v.pinned {
			must(c.SubmitPinned(j1, []grid.NodeID{0, 1, 2, 3}))
			must(c.SubmitPinned(j2, []grid.NodeID{4, 5, 6, 7}))
		} else {
			must(c.Submit(j1))
			must(c.Submit(j2))
		}
		rep := must(c.Run())
		for _, jr := range rep.Jobs {
			tb.AddRowf(v.name, jr.Name, jr.Admitted, jr.Finished, jr.Makespan, jr.Throughput, jr.Remaps)
		}
		sum.AddRowf(v.name, rep.Makespan, rep.MinWeightedShare, rep.Jain, rep.Arbitrations)
		series := stats.NewSeries(v.name + "-makespan")
		for i, jr := range rep.Jobs {
			series.Append(float64(i), jr.Makespan)
		}
		res.Series = append(res.Series, series)
	}
	tb.AddNote("expected shape: arbitration lets each tenant use the whole grid while alone; static halves strand half the nodes")
	sum.AddNote("expected shape: arbitrated beats static halves on total makespan and on the weighted max-min floor")
	res.Tables = []*stats.Table{tb, sum}
	return res
}

// F13: an open stream of ten genome jobs (one every 6 s, floor 2) hits
// a 4-node grid that fits two at a time. Queued admission holds
// arrivals until a lease frees, so admitted jobs run at near-nominal
// speed; over-admission starts everyone immediately on overlapping
// leases and proportional sharing stretches every job — the classic
// thrashing collapse admission control exists to prevent.
func runF13(seed uint64) *Result {
	const (
		jobs     = 10
		spacing  = 6.0
		items    = 150
		jobFloor = 2
	)
	type variant struct {
		name string
		mode cluster.Admission
	}
	variants := []variant{
		{"admission-queue", cluster.AdmitQueue},
		{"over-admission", cluster.AdmitAll},
	}

	res := &Result{ID: "F13", Title: "admission queue vs over-admission"}
	tb := stats.NewTable("F13 open stream on 4 nodes (10 genome jobs, one every 6 s, floor 2)",
		"variant", "done jobs", "mean wait", "mean makespan", "p95 makespan", "mean job thr", "last finish")
	for _, v := range variants {
		c := must(cluster.New(must(grid.Homogeneous(4, 1, grid.LANLink)), cluster.Config{Seed: seed, Admission: v.mode}))
		for i := 0; i < jobs; i++ {
			js := clusterJob(fmt.Sprintf("job%d", i), workload.Genome(), float64(i)*spacing, items)
			js.FloorNodes = jobFloor
			must(c.Submit(js))
		}
		rep := must(c.Run())
		var waits, spans, finishes []float64
		doneJobs := 0
		for _, jr := range rep.Jobs {
			if jr.State != cluster.JobDone {
				continue
			}
			doneJobs++
			waits = append(waits, jr.Waited)
			spans = append(spans, jr.Makespan)
			finishes = append(finishes, jr.Finished)
		}
		// Jobs finish out of arrival order; the completion-count series
		// walks the sorted finish times.
		sort.Float64s(finishes)
		series := stats.NewSeries(v.name + "-finish")
		for i, f := range finishes {
			series.Append(f, float64(i+1))
		}
		res.Series = append(res.Series, series)
		// Sustained per-job throughput: items/s while resident — the
		// service rate an admitted tenant actually experiences.
		jobThr := float64(items) / stats.Mean(spans)
		tb.AddRowf(v.name, doneJobs, stats.Mean(waits), stats.Mean(spans),
			stats.Quantile(spans, 0.95), jobThr, rep.Makespan)
	}
	tb.AddNote("expected shape: admission control sustains near-nominal per-job throughput (jobs wait, then run fast); over-admission collapses it ~3× (every job resident, every node thrashed)")
	res.Tables = []*stats.Table{tb}
	return res
}
