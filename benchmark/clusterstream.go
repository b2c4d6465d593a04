package main

import (
	"fmt"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/workload"
)

// clusterStream replays a Poisson job stream (0.6 jobs/s of 50-item
// genome jobs over 4 000 virtual seconds) into a 16-node cluster with
// queueing admission and the reactive arbiter.
type clusterStream struct {
	trace workload.Trace
	grid  *grid.Grid
	seed  uint64
	clk   clock
}

const (
	clusterJobRate = 0.6
	clusterHorizon = 4000.0
	clusterNodes   = 16
	// clusterJobs caps the replayed stream at 95 % of the expected
	// arrivals (2.4 standard deviations below the mean), so nearly every
	// seed replays the same number of jobs and a rep's wall time varies
	// with the stream's dynamics, not also with its length.
	clusterJobs = int(0.95 * clusterJobRate * clusterHorizon)
)

// clusterRun is one replay: the report's virtual outputs plus the
// wall-clock cost.
type clusterRun struct {
	rep      cluster.Report
	div      cluster.DividerStats
	jobsDone int
	done     int
	lost     int
	meanWait float64
	wall     time.Duration
}

func (w *clusterStream) setup(cfg runCfg) error {
	w.seed, w.clk = cfg.seed, newClock()
	horizon := clusterHorizon
	if cfg.quick {
		horizon /= 20
	}
	var err error
	cfg.spans.timed(w.clk, "workload.GenerateTrace", "", "cluster_stream/setup", func() {
		w.trace, err = workload.GenerateTrace(workload.NewPoisson(clusterJobRate, cfg.seed),
			workload.DefaultMix(), horizon, cfg.seed)
	})
	if err != nil {
		return err
	}
	if len(w.trace) == 0 {
		return fmt.Errorf("cluster_stream: empty trace")
	}
	w.trace = w.trace[:min(len(w.trace), cfg.scale(clusterJobs))]
	if w.grid, err = grid.Homogeneous(clusterNodes, 1, grid.LANLink); err != nil {
		return err
	}
	_, err = w.run(w.trace[:max(len(w.trace)/10, 1)], nil, "")
	return err
}

func (w *clusterStream) run(tr workload.Trace, spans *spanLog, id string) (clusterRun, error) {
	var r clusterRun
	start := time.Now()
	c, err := cluster.New(w.grid, cluster.Config{
		Policy:    adaptive.PolicyReactive,
		Admission: cluster.AdmitQueue,
		Seed:      w.seed,
	})
	if err != nil {
		return r, err
	}
	spans.timed(w.clk, "cluster.SubmitTrace", "", id, func() { _, err = c.SubmitTrace(tr) })
	if err != nil {
		return r, err
	}
	spans.timed(w.clk, "cluster.Run", "", id, func() { r.rep, err = c.Run() })
	if err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	r.div = c.DividerStats()
	for _, j := range r.rep.Jobs {
		if j.State == cluster.JobDone {
			r.jobsDone++
		}
		r.done += j.Done
		r.lost += j.Lost
		r.meanWait += j.Waited / float64(len(r.rep.Jobs))
	}
	return r, nil
}

// sameVirtual reports whether two replays agree on everything computed
// in virtual time.
func (r clusterRun) sameVirtual(o clusterRun) bool {
	return r.rep.Makespan == o.rep.Makespan && r.rep.Arbitrations == o.rep.Arbitrations &&
		r.rep.Remaps == o.rep.Remaps && r.meanWait == o.meanWait &&
		r.jobsDone == o.jobsDone && r.done == o.done && r.lost == o.lost
}

func (w *clusterStream) measure(cfg runCfg, m *measurement) error {
	var (
		runs  []clusterRun
		items []float64
		walls []time.Duration
	)
	offered := int64(w.trace.TotalItems())
	err := repLoop(cfg.budget(), 1, func(i int) error {
		r, err := w.run(w.trace, cfg.spans, fmt.Sprintf("cluster_stream/rep%d", i))
		if err != nil {
			return err
		}
		m.Attempted += offered
		m.Failed += offered - int64(r.done) // lost items and unfinished jobs
		if i > 0 && !r.sameVirtual(runs[0]) {
			m.Failed += offered // virtual time must repeat exactly
		}
		runs = append(runs, r)
		items = append(items, float64(r.done))
		walls = append(walls, r.wall)
		return nil
	})
	if err != nil {
		return err
	}
	wholeRun(m, items, walls)
	if !cfg.traced {
		return nil
	}

	var jobsPerS, nsPerArb []float64
	for _, r := range runs {
		jobsPerS = append(jobsPerS, float64(r.jobsDone)/r.wall.Seconds())
		nsPerArb = append(nsPerArb, float64(r.wall)/float64(r.rep.Arbitrations))
	}
	r := runs[0]
	m.set("jobs_per_s", median(jobsPerS))
	m.note("jobs_per_s", fmt.Sprintf("%d jobs, %d items per rep", r.jobsDone, r.done))
	m.set("mean_wait_s", r.meanWait)
	m.set("cluster.arbitrations", float64(r.rep.Arbitrations))
	m.set("cluster.divider_searches", float64(r.div.Searches))
	m.set("cluster.divider_cached", float64(r.div.Cached))
	m.set("cluster.ns_per_arbitration", median(nsPerArb))
	m.set("cluster.makespan_s", r.rep.Makespan)
	m.set("cluster.jain", r.rep.Jain)
	m.set("failed_share", float64(m.Failed)/float64(m.Attempted))
	if err := probeSched(m); err != nil {
		return err
	}
	return probeWorkload(m, w.trace)
}
