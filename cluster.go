package gridpipe

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/adaptive/liveadapt"
	"gridpipe/internal/cluster"
	"gridpipe/internal/conc"
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
	// (required for Submit/Run; Process runs live and needs none).
	Grid *SimGrid
	// Policy drives cross-job arbitration, one of the Policy*
	// constants (default static: the cluster re-divides nodes only on
	// job arrivals and finishes).
	Policy string
	// Interval is the arbitration period in virtual seconds
	// (simulated) or wall seconds (live; default 1 / 250 ms).
	Interval float64
	// Admission selects the admission-control mode (default queue).
	Admission string
	// Seed drives every job's derived randomness.
	Seed uint64
	// MaxWorkers is the live runtime's total goroutine budget shared
	// by concurrent Process calls (default 2×GOMAXPROCS).
	MaxWorkers int
	// HysteresisGain and Cooldown tune the arbitration controller
	// (adaptive.Config semantics).
	HysteresisGain float64
	Cooldown       float64
}

// Cluster runs many jobs over one shared substrate: simulated jobs
// lease grid capacity under weighted max-min arbitration (Submit +
// Run), and concurrent live Process calls split one real worker
// budget the same way.
type Cluster struct {
	cfg    ClusterConfig
	inner  *cluster.Cluster
	policy adaptive.Policy
	budget *conc.WorkerBudget
}

// NewCluster builds a cluster. With a Grid, Submit queues simulated
// jobs and Run executes them in one virtual-time engine; with or
// without one, concurrent Process calls share the live worker budget.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
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
	maxW := cfg.MaxWorkers
	if maxW <= 0 {
		maxW = 2 * runtime.GOMAXPROCS(0)
	}
	c := &Cluster{cfg: cfg, policy: pol, budget: conc.NewWorkerBudget(maxW)}
	if cfg.Grid != nil {
		inner, err := cluster.New(cfg.Grid.g, cfg.simConfig(pol, adm))
		if err != nil {
			return nil, err
		}
		c.inner = inner
	}
	return c, nil
}

// simConfig is the simulated cluster's configuration.
func (cfg ClusterConfig) simConfig(pol adaptive.Policy, adm cluster.Admission) cluster.Config {
	return cluster.Config{
		Policy:         pol,
		Interval:       cfg.Interval,
		HysteresisGain: cfg.HysteresisGain,
		Cooldown:       cfg.Cooldown,
		Admission:      adm,
		Seed:           cfg.Seed,
	}
}

// liveConfig is a live tenant's controller configuration, its periods
// converted from seconds; Process adds the worker budget.
func (cfg ClusterConfig) liveConfig(pol adaptive.Policy) liveadapt.Config {
	return liveadapt.Config{
		Policy:         pol,
		Interval:       seconds(cfg.Interval),
		HysteresisGain: cfg.HysteresisGain,
		Cooldown:       seconds(cfg.Cooldown),
	}
}

// seconds converts a period in seconds to a time.Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// JobOpts describes one submitted job.
type JobOpts struct {
	// Name labels the job in reports (default jobN).
	Name string
	// Weight is the fairness weight (default 1).
	Weight float64
	// FloorNodes is the admission floor: the minimum nodes the job
	// needs to run at all (default 1).
	FloorNodes int
	// Arrival is the job's virtual arrival time (simulated jobs).
	Arrival float64
	// Items is how many items the job processes (simulated jobs;
	// required).
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
	if c.inner == nil {
		return nil, fmt.Errorf("gridpipe: Submit on a cluster built without a Grid")
	}
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
	if c.inner == nil {
		return nil, fmt.Errorf("gridpipe: SubmitTrace on a cluster built without a Grid")
	}
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

// ReplayOptions tunes a wall-clock trace replay (ProcessTrace).
type ReplayOptions struct {
	// Speedup divides the recorded inter-arrival gaps: 10 replays a
	// 100-second trace in ~10 wall seconds (default 1 = real time).
	Speedup float64
	// Build constructs the live pipeline and its inputs for one trace
	// event (required — a live pipeline is single-use, so every event
	// needs a fresh one). It receives the event's app name and item
	// count.
	Build func(app string, items int) (*Pipeline, []any, error)
}

// TraceJobResult is one replayed trace event's outcome.
type TraceJobResult struct {
	// Index is the event's position in the trace; App its workload
	// name.
	Index int
	App   string
	// Outputs and Err are the event's Process results.
	Outputs []any
	Err     error
}

// ProcessTrace replays a recorded traffic trace against the live
// runtime: each event waits out its recorded inter-arrival gap in wall
// time (scaled by opts.Speedup), then runs a fresh pipeline from
// opts.Build as one tenant of the cluster's shared worker budget —
// open-loop, so a slow tenant does not delay later arrivals. It
// returns one result per event, in trace order, once all have
// finished; a cancelled context stops launching new events and is
// reported as the error.
func (c *Cluster) ProcessTrace(ctx context.Context, r io.Reader, opts ReplayOptions) ([]TraceJobResult, error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("gridpipe: ProcessTrace needs a Build callback")
	}
	speedup := opts.Speedup
	if speedup <= 0 {
		speedup = 1
	}
	tr, err := workload.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	results := make([]TraceJobResult, len(tr))
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	launchErr := error(nil)
	prev := 0.0
	for i, ev := range tr {
		gap := seconds((ev.T - prev) / speedup)
		prev = ev.T
		if gap > 0 {
			timer.Reset(gap)
			select {
			case <-timer.C:
			case <-ctx.Done():
				launchErr = ctx.Err()
			}
		}
		if launchErr != nil {
			// Stop launching; mark the unlaunched tail.
			for j := i; j < len(tr); j++ {
				results[j] = TraceJobResult{Index: j, App: tr[j].App, Err: launchErr}
			}
			break
		}
		p, inputs, err := opts.Build(ev.App, ev.Items)
		if err != nil {
			results[i] = TraceJobResult{Index: i, App: ev.App, Err: err}
			continue
		}
		wg.Add(1)
		go func(i int, ev workload.TraceEvent, p *Pipeline, inputs []any) {
			defer wg.Done()
			out, err := c.Process(ctx, p, inputs, JobOpts{
				Name:   fmt.Sprintf("%s-%d", ev.App, i),
				Weight: ev.Weight,
			})
			results[i] = TraceJobResult{Index: i, App: ev.App, Outputs: out, Err: err}
		}(i, ev, p, inputs)
	}
	wg.Wait()
	return results, launchErr
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
	if c.inner == nil {
		return ClusterReport{}, fmt.Errorf("gridpipe: Run on a cluster built without a Grid")
	}
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

// Process runs the pipeline live over the inputs as one tenant of the
// cluster's shared worker budget: concurrent Process calls on one
// Cluster split the real goroutine budget by weight, each under its
// own adaptive controller (the cluster's policy, unless the tenant
// armed its own with WithLiveAdaptive), re-divided as tenants join and
// leave. Under PolicyStatic an unarmed tenant's controller never ticks:
// it runs with its declared replicas and only holds a lease so
// concurrent adaptive tenants shrink around it. Each call needs its own
// *Pipeline (a live pipeline is single-use).
func (c *Cluster) Process(ctx context.Context, p *Pipeline, inputs []any, opts JobOpts) ([]any, error) {
	lease := c.budget.Lease(opts.Weight)
	defer lease.Release()
	cfg := c.cfg.liveConfig(c.policy)
	cfg.MaxWorkers, cfg.BudgetCap = c.budget.Total(), lease.Cap
	if err := p.withLiveBudget(cfg); err != nil {
		return nil, err
	}
	return p.Process(ctx, inputs)
}
