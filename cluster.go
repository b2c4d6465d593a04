package gridpipe

import (
	"fmt"
	"io"

	"gridpipe/internal/cluster"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/workload"
)

// Admission-control modes accepted by ClusterConfig.
const (
	// AdmissionQueue holds arriving jobs FIFO until capacity frees
	// (the default).
	AdmissionQueue = "queue"
	// AdmissionReject refuses jobs the residual capacity cannot place.
	AdmissionReject = "reject"
	// AdmissionOverAdmit admits everything immediately — the collapse
	// baseline of experiment F13.
	AdmissionOverAdmit = "over-admit"
)

// ClusterConfig tunes NewCluster.
type ClusterConfig struct {
	// Grid is the simulated substrate shared by every submitted job
	// (required).
	Grid *SimGrid
	// Policy drives cross-job arbitration, one of the Policy*
	// constants (default static: the cluster re-divides nodes only on
	// job arrivals and finishes).
	Policy string
	// Interval is the arbitration period in virtual seconds
	// (default 1).
	Interval float64
	// Admission selects the admission-control mode (default queue).
	Admission string
	// Seed drives every job's derived randomness.
	Seed uint64
	// HysteresisGain and Cooldown tune the arbitration controller
	// (adaptive.Config semantics).
	HysteresisGain float64
	Cooldown       float64
}

// Cluster runs many simulated jobs over one shared grid: jobs lease
// grid capacity under weighted max-min arbitration (Submit, then Run).
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster builds a cluster over cfg.Grid, which it requires: Submit
// queues simulated jobs and Run executes them in one virtual-time
// engine.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Grid == nil {
		return nil, fmt.Errorf("gridpipe: NewCluster needs a Grid")
	}
	pol, err := parsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	var adm cluster.Admission
	switch cfg.Admission {
	case "", AdmissionQueue:
		adm = cluster.AdmitQueue
	case AdmissionReject:
		adm = cluster.AdmitReject
	case AdmissionOverAdmit:
		adm = cluster.AdmitAll
	default:
		return nil, fmt.Errorf("gridpipe: unknown admission mode %q", cfg.Admission)
	}
	inner, err := cluster.New(cfg.Grid.g, cluster.Config{
		Policy:         pol,
		Interval:       cfg.Interval,
		HysteresisGain: cfg.HysteresisGain,
		Cooldown:       cfg.Cooldown,
		Admission:      adm,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// JobOpts describes one submitted job.
type JobOpts struct {
	// Name labels the job in reports (default jobN).
	Name string
	// Weight is the fairness weight (default 1).
	Weight float64
	// FloorNodes is the admission floor: the minimum nodes the job
	// needs to run at all (default 1).
	FloorNodes int
	// Arrival is the job's virtual arrival time.
	Arrival float64
	// Items is how many items the job processes (required).
	Items int
	// CV is the per-item service-demand variability.
	CV float64
	// InBytes is the input message size entering the first stage.
	InBytes float64
	// PinNodes, when non-empty, leases the job statically to these
	// nodes — the static-partition baseline arbitration is measured
	// against.
	PinNodes []int
}

// ClusterJob is a handle to one submitted job.
type ClusterJob struct {
	inner *cluster.Job
}

// Name returns the job's label.
func (j *ClusterJob) Name() string { return j.inner.Name() }

// State renders the job's admission-lifecycle state.
func (j *ClusterJob) State() string { return j.inner.State().String() }

// Submit registers a simulated job running the pipeline's cost model
// over the shared grid. Admission control applies at the job's
// arrival: a floor no residual capacity can meet queues or rejects
// the job per the cluster's admission mode, and a floor exceeding the
// whole grid errors here.
func (c *Cluster) Submit(p *Pipeline, opts JobOpts) (*ClusterJob, error) {
	spec := p.spec
	spec.InBytes = opts.InBytes
	js := model.JobSpec{
		Name:       opts.Name,
		Spec:       spec,
		Weight:     opts.Weight,
		FloorNodes: opts.FloorNodes,
		Arrival:    opts.Arrival,
		Items:      opts.Items,
		CV:         opts.CV,
	}
	var (
		j   *cluster.Job
		err error
	)
	if len(opts.PinNodes) > 0 {
		nodes := make([]grid.NodeID, len(opts.PinNodes))
		for i, n := range opts.PinNodes {
			nodes[i] = grid.NodeID(n)
		}
		j, err = c.inner.SubmitPinned(js, nodes)
	} else {
		j, err = c.inner.Submit(js)
	}
	if err != nil {
		return nil, err
	}
	return &ClusterJob{inner: j}, nil
}

// SubmitTrace replays a recorded JSON-lines traffic trace (see
// DESIGN.md, "Traffic engine") into the simulated cluster: one job per
// trace event, submitted in trace order at its recorded virtual
// arrival time, running the named bundled workload. Per-job randomness
// derives from submit order, so replaying a trace into a cluster with
// the same configuration reproduces the generating run's report
// exactly.
func (c *Cluster) SubmitTrace(r io.Reader) ([]*ClusterJob, error) {
	tr, err := workload.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	jobs, err := c.inner.SubmitTrace(tr)
	if err != nil {
		return nil, err
	}
	out := make([]*ClusterJob, len(jobs))
	for i, j := range jobs {
		out[i] = &ClusterJob{inner: j}
	}
	return out, nil
}

// ClusterJobReport is one job's outcome in a ClusterReport.
type ClusterJobReport struct {
	Name  string
	State string
	// Arrival/Admitted/Finished are virtual times; Waited is the
	// admission-queue delay.
	Arrival, Admitted, Finished, Waited float64
	Done, Lost                          int
	Makespan, Throughput, MeanLatency   float64
	Remaps                              int
	InitialMapping, FinalMapping        string
}

// ClusterReport is the outcome of one simulated cluster run.
type ClusterReport struct {
	Jobs []ClusterJobReport
	// Makespan is the virtual time the last job finished at.
	Makespan float64
	// Arbitrations counts arbiter rounds; Remaps counts adaptive
	// cross-job reconfigurations.
	Arbitrations, Remaps int
	// MinWeightedShare and Jain summarise fairness over per-job
	// weighted throughputs (Jain 1 = perfectly fair).
	MinWeightedShare, Jain float64
}

// Run executes every submitted job to completion in one virtual-time
// engine and reports per-job and fairness outcomes. It may be called
// once.
func (c *Cluster) Run() (ClusterReport, error) {
	rep, err := c.inner.Run()
	if err != nil {
		return ClusterReport{}, err
	}
	out := ClusterReport{
		Makespan:         rep.Makespan,
		Arbitrations:     rep.Arbitrations,
		Remaps:           rep.Remaps,
		MinWeightedShare: rep.MinWeightedShare,
		Jain:             rep.Jain,
	}
	for _, jr := range rep.Jobs {
		out.Jobs = append(out.Jobs, ClusterJobReport{
			Name:           jr.Name,
			State:          jr.State.String(),
			Arrival:        jr.Arrival,
			Admitted:       jr.Admitted,
			Finished:       jr.Finished,
			Waited:         jr.Waited,
			Done:           jr.Done,
			Lost:           jr.Lost,
			Makespan:       jr.Makespan,
			Throughput:     jr.Throughput,
			MeanLatency:    jr.MeanLatency,
			Remaps:         jr.Remaps,
			InitialMapping: jr.InitialMapping,
			FinalMapping:   jr.FinalMapping,
		})
	}
	return out, nil
}
