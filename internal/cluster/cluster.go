// Package cluster is the multi-tenant layer: it owns one simulated
// grid and runs N concurrent jobs over it in a single virtual-time
// engine. Where the single-job stack lets a pipeline own the grid, the
// cluster inverts the relationship — each job leases capacity:
//
//   - admission control queues (or rejects) a job while the grid's
//     residual capacity cannot meet every admitted job's node floor;
//   - the arbiter (arbiter.go) divides the nodes among admitted jobs
//     under weighted max-min fairness, re-dividing on every arrival
//     and finish;
//   - each job's mapping is searched inside its lease against the
//     residual capacity the other tenants leave (sched.Reservations),
//     and executed by its own exec.Executor on the shared engine, with
//     cross-tenant contention modelled as proportional capacity
//     sharing (exec.NodeShares);
//   - an adaptive arbitration policy (adapt.go) — the cluster wiring
//     of the substrate-agnostic adaptive.Controller — senses per-job
//     degradation and re-divides nodes across jobs under the same
//     hysteresis/cooldown machinery the single-job controllers use.
//
// A cluster with one job is the degenerate one-tenant case; every
// multi-tenant branch in the executor is disabled when only one
// executor is attached-and-running, so the single-job experiments are
// unaffected (their goldens are byte-identical).
package cluster

import (
	"fmt"
	"math"
	"slices"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
	"gridpipe/internal/stats"
	"gridpipe/internal/workload"
)

// Admission selects what happens to a job the residual capacity
// cannot place.
type Admission int

const (
	// AdmitQueue holds arriving jobs in FIFO order until every
	// admitted job's floor still fits (the default).
	AdmitQueue Admission = iota
	// AdmitReject turns the capacity check into a hard rejection.
	AdmitReject
	// AdmitAll admits every job immediately, floors regardless — the
	// over-admission baseline of experiment F13: leases overlap and
	// proportional sharing splits the nodes ever thinner.
	AdmitAll
)

// Config tunes a cluster.
type Config struct {
	// Policy drives the adaptive arbitration loop (static = arbitrate
	// only on arrivals/finishes; oracle uses ground-truth loads).
	// The loop ticks every virtual second with the default hysteresis
	// and no cooldown (adaptive.Config); its imbalance trigger reads
	// per-job degradation spread — unfairness — instead of stage
	// spread.
	Policy adaptive.Policy
	// Admission selects the admission-control mode.
	Admission Admission
	// Seed is the root seed; every job derives its own keyed
	// sub-streams (rng.SeedFor), so the run is deterministic regardless
	// of job interleaving.
	Seed uint64
}

// JobState is one job's position in the admission lifecycle.
type JobState int

const (
	// JobPending: submitted, arrival not yet reached.
	JobPending JobState = iota
	// JobQueued: arrived, waiting for capacity.
	JobQueued
	// JobRunning: admitted, executing.
	JobRunning
	// JobDone: every item completed (or lost).
	JobDone
	// JobRejected: refused by admission control.
	JobRejected
)

// String renders the state name.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobRejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one tenant of the cluster.
type Job struct {
	id      int
	cluster *Cluster
	spec    model.JobSpec
	pin     model.CapacityMask
	seed    uint64

	state JobState
	mask  model.CapacityMask
	// mapping is the placement the job runs under: always equal to its
	// executor's (every Remap is followed by the assignment), shared
	// with the divider's memo and never mutated in place.
	mapping  model.Mapping
	pred     model.Prediction
	ex       *exec.Executor
	searcher sched.Searcher

	done, lost       int
	queuedAt, admitT float64
	finishT          float64
	remaps           int
	initialMapping   string
	// What the report needs of the executor, taken at finalize: a
	// finished job keeps no executor.
	meanLatency  float64
	finalMapping string
}

// Name returns the job's label.
func (j *Job) Name() string { return j.spec.Name }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return j.state }

// Cluster owns one grid and multiplexes jobs over it.
type Cluster struct {
	g       *grid.Grid
	eng     *sim.Engine
	cfg     Config
	shares  *exec.NodeShares
	sensors monitor.NodeSensors

	jobs  []*Job
	queue []*Job // FIFO admission queue
	// running holds the jobs in JobRunning, in job-index (= Submit)
	// order — not arrival or admission order, which differ when jobs are
	// submitted out of arrival order or admitted from the queue. It is
	// the tenant order of every arbitration round. settled counts the
	// jobs in JobDone or JobRejected. Both are kept at the state
	// transitions (admit, finalize, reject), so no per-event or
	// per-arbitration cost depends on how many jobs were ever submitted.
	// admit and finalize rewrite running in place: whoever holds it
	// across cluster re-entry (the adaptive plan) must copy it.
	running []*Job
	settled int

	ctrl         *adaptive.Controller
	arbitrations int
	started      bool

	// Incremental-arbitration machinery: the memoizing divider plus the
	// reused round buffers (tenant list, placements, fits' pinned scan)
	// that keep steady-state rounds allocation-free.
	div        *Divider
	tenantBuf  []DividerTenant
	placeBuf   []Placement
	fitsPinned []bool
}

// New builds a cluster over the grid. Submit jobs, then Run.
func New(g *grid.Grid, cfg Config) (*Cluster, error) {
	if g == nil {
		return nil, fmt.Errorf("cluster: nil grid")
	}
	c := &Cluster{
		g:       g,
		eng:     &sim.Engine{},
		cfg:     cfg,
		shares:  exec.NewNodeShares(g),
		sensors: monitor.NewNodeSensors(g, cfg.Policy.Mode()),
	}
	c.div = NewDivider(g, 0)
	return c, nil
}

// DividerStats reports the incremental arbiter's work counters: how
// many division rounds ran and how many per-tenant searches were
// replayed from the memo instead of re-executed.
func (c *Cluster) DividerStats() DividerStats { return c.div.Stats() }

// Submit registers a job; its arrival fires at spec.Arrival in virtual
// time. Must be called before Run. A floor that exceeds the whole grid
// is a clean admission error here, not a queue-forever.
func (c *Cluster) Submit(spec model.JobSpec) (*Job, error) {
	return c.submit(spec, nil)
}

// SubmitPinned registers a job statically leased to the given nodes:
// the arbiter never grows or shrinks the lease. It is the static-
// partition baseline the arbitrated runs are measured against.
func (c *Cluster) SubmitPinned(spec model.JobSpec, nodes []grid.NodeID) (*Job, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: pinned job %q with no nodes", spec.Name)
	}
	pin := make(model.CapacityMask, c.g.NumNodes())
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= c.g.NumNodes() {
			return nil, fmt.Errorf("cluster: pinned job %q names invalid node %d", spec.Name, n)
		}
		pin[n] = true
	}
	return c.submit(spec, pin)
}

func (c *Cluster) submit(spec model.JobSpec, pin model.CapacityMask) (*Job, error) {
	if c.started {
		return nil, fmt.Errorf("cluster: Submit after Run started")
	}
	if err := spec.Validate(c.g.NumNodes()); err != nil {
		return nil, err
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("job%d", len(c.jobs))
	}
	j := &Job{
		id:      len(c.jobs),
		cluster: c,
		spec:    spec,
		pin:     pin,
		seed:    rng.SeedFor(c.cfg.Seed, uint64(len(c.jobs))),
	}
	j.searcher = sched.LocalSearch{Seed: rng.SeedFor(j.seed, 1)}
	c.jobs = append(c.jobs, j)
	c.eng.AtArg(spec.Arrival, arrivalFire, j)
	return j, nil
}

// arrivalFire is the shared arrival trampoline; the cluster pointer
// rides on the job to keep arrivals allocation-free.
func arrivalFire(arg any) {
	j := arg.(*Job)
	j.cluster.onArrival(j)
}

// Run executes every submitted job to completion and returns the
// report. It may be called once.
func (c *Cluster) Run() (Report, error) {
	if c.started {
		return Report{}, fmt.Errorf("cluster: Run called twice")
	}
	if len(c.jobs) == 0 {
		return Report{}, fmt.Errorf("cluster: no jobs submitted")
	}
	c.started = true
	if c.cfg.Policy != adaptive.PolicyStatic {
		acfg := adaptive.Config{Policy: c.cfg.Policy}
		sub := &arbSub{c: c, window: acfg.ThroughputWindow()}
		core, err := adaptive.New(sub, sub, simClock{eng: c.eng}, acfg)
		if err != nil {
			return Report{}, err
		}
		c.ctrl = core
		c.ctrl.Start()
	}
	for c.settled < len(c.jobs) {
		if !c.eng.Step() {
			return Report{}, fmt.Errorf("cluster: calendar empty with jobs outstanding (deadlock?)")
		}
	}
	if c.ctrl != nil {
		c.ctrl.Stop()
	}
	return c.report(), nil
}

// fits reports whether admitting j keeps every floor satisfiable. It
// mirrors the arbiter's pool computation exactly: pinned tenants
// occupy their pinned nodes, and the unpinned tenants' floors must
// fit the remaining pool — summed under queued/rejecting admission
// (leases stay disjoint), individually under over-admission (leases
// may overlap, but even a shared lease needs the floor's nodes to
// exist). A passed check can therefore never make Arbitrate error, in
// any mode.
func (c *Cluster) fits(j *Job) bool {
	np := c.g.NumNodes()
	if cap(c.fitsPinned) < np {
		c.fitsPinned = make([]bool, np)
	}
	pinned := c.fitsPinned[:np]
	for n := range pinned {
		pinned[n] = false
	}
	floorSum, floorMax := 0, 0
	count := func(x *Job) {
		if x.pin != nil {
			for n, ok := range x.pin {
				if ok {
					pinned[n] = true
				}
			}
			return
		}
		f := x.spec.Floor()
		floorSum += f
		if f > floorMax {
			floorMax = f
		}
	}
	for _, a := range c.running {
		count(a)
	}
	count(j)
	pool := 0
	for n := 0; n < np; n++ {
		if !pinned[n] {
			pool++
		}
	}
	if c.cfg.Admission == AdmitAll {
		return floorMax <= pool
	}
	return floorSum <= pool
}

func (c *Cluster) onArrival(j *Job) {
	now := c.eng.Now()
	// Strict FIFO: while the queue head is blocked, later arrivals
	// wait behind it even if they would fit — admitting them past the
	// head would starve a big job under a stream of small ones.
	if c.cfg.Admission != AdmitReject && len(c.queue) > 0 {
		j.state = JobQueued
		j.queuedAt = now
		c.queue = append(c.queue, j)
		return
	}
	if c.fits(j) {
		c.admit(j, now)
		return
	}
	switch c.cfg.Admission {
	case AdmitReject:
		j.state = JobRejected
		c.settled++
	default:
		j.state = JobQueued
		j.queuedAt = now
		c.queue = append(c.queue, j)
	}
}

// admit leases capacity to j and starts it: the arbiter re-divides the
// grid over the active jobs plus j, every job whose mapping moves is
// remapped, and j gets its own executor on the shared engine.
func (c *Cluster) admit(j *Job, now float64) {
	j.state = JobRunning
	j.admitT = now
	i, _ := slices.BinarySearchFunc(c.running, j.id, func(r *Job, id int) int { return r.id - id })
	c.running = slices.Insert(c.running, i, j)
	c.rearbitrate(now)

	app := workload.App{Name: j.spec.Name, Spec: j.spec.Spec, CV: j.spec.CV}
	ex, err := exec.New(c.eng, c.g, j.spec.Spec, j.mapping, exec.Options{
		MaxInFlight: 4 * j.spec.Spec.NumStages(),
		TotalItems:  j.spec.Items,
		WorkSampler: app.Sampler(rng.SeedFor(j.seed, 2)),
		Seed:        rng.SeedFor(j.seed, 3),
		Share:       c.shares,
	})
	if err != nil {
		panic(fmt.Sprintf("cluster: job %q executor: %v", j.spec.Name, err))
	}
	j.ex = ex
	j.initialMapping = j.mapping.String()
	ex.SetItemHooks(
		func(int) { j.done++; c.checkFinished(j) },
		func(int) { j.lost++; c.checkFinished(j) },
	)
	ex.Start()
}

func (c *Cluster) checkFinished(j *Job) {
	if j.done+j.lost < j.spec.Items {
		return
	}
	// Finalise in a fresh event: the hook fires mid-delivery inside
	// j's executor, and finalisation remaps *other* executors.
	c.eng.ScheduleArg(0, finalizeFire, j)
}

func finalizeFire(arg any) {
	j := arg.(*Job)
	j.cluster.finalize(j)
}

func (c *Cluster) finalize(j *Job) {
	if j.state != JobRunning {
		return
	}
	now := c.eng.Now()
	j.state = JobDone
	j.finishT = now
	c.settled++
	i := slices.Index(c.running, j)
	c.running = slices.Delete(c.running, i, i+1)
	// From here the job is its report row: the executor (per-item
	// latencies, pools, monitors) and the divider's memo are released.
	if lats := j.ex.Latencies(); len(lats) > 0 {
		j.meanLatency = stats.Mean(lats)
	}
	j.finalMapping = j.ex.Mapping().String()
	j.ex = nil
	c.div.Release(j.id)
	// Freed capacity goes first to the admission queue (strict FIFO:
	// the head blocks), then folds into the remaining tenants.
	admitted := false
	for len(c.queue) > 0 && c.fits(c.queue[0]) {
		head := c.queue[0]
		c.queue = c.queue[1:]
		c.admit(head, now)
		admitted = true
	}
	if !admitted && len(c.running) > 0 {
		c.rearbitrate(now)
	}
}

// rearbitrate re-divides the grid over the active jobs and remaps any
// job whose searched mapping moved. Mappings are searched in job-index
// order, each against the residual capacity of those already placed —
// through the incremental divider, so jobs whose lease and upstream
// reservations are unchanged replay their memoized search.
func (c *Cluster) rearbitrate(now float64) {
	actives := c.running
	if len(actives) == 0 {
		return
	}
	c.arbitrations++
	tenants, out := c.roundArgs(actives)
	if err := c.div.Round(nil, tenants, nil, out); err != nil {
		panic(fmt.Sprintf("cluster: arbitrate: %v", err))
	}
	for i, a := range actives {
		a.setMask(out[i].Mask)
		m := out[i].Mapping
		if a.ex != nil && !m.Equal(a.mapping) {
			if _, err := a.ex.Remap(m, exec.DrainSafe); err != nil {
				panic(fmt.Sprintf("cluster: job %q remap: %v", a.spec.Name, err))
			}
			a.remaps++
		}
		a.mapping = m
		a.pred = out[i].Pred
	}
}

// roundArgs builds the divider's tenant list and placement buffer for
// the active jobs over reused storage.
func (c *Cluster) roundArgs(actives []*Job) ([]DividerTenant, []Placement) {
	tenants := c.tenantBuf[:0]
	for _, a := range actives {
		tenants = append(tenants, DividerTenant{
			ID:       a.id,
			Name:     a.spec.Name,
			Tenant:   Tenant{Weight: a.spec.NormWeight(), Floor: a.spec.Floor(), Pin: a.pin},
			Spec:     a.spec.Spec,
			Searcher: a.searcher,
		})
	}
	c.tenantBuf = tenants
	if cap(c.placeBuf) < len(actives) {
		c.placeBuf = make([]Placement, len(actives))
	}
	c.placeBuf = c.placeBuf[:len(actives)]
	return tenants, c.placeBuf
}

// setMask copies a lease into the job's owned mask buffer: the
// divider's mask storage is rewritten every round.
func (j *Job) setMask(m model.CapacityMask) {
	if cap(j.mask) < len(m) {
		j.mask = make(model.CapacityMask, len(m))
	}
	j.mask = j.mask[:len(m)]
	copy(j.mask, m)
}

// simClock schedules controller ticks in the cluster's virtual time.
type simClock struct{ eng *sim.Engine }

func (c simClock) Tick(interval float64, fn func(now float64)) (stop func()) {
	t := sim.NewTicker(c.eng, interval, fn)
	return t.Stop
}

// JobReport is one job's outcome.
type JobReport struct {
	Name   string
	State  JobState
	Weight float64
	// Arrival, Admitted, and Finished are virtual times; Waited is the
	// admission-queue delay.
	Arrival, Admitted, Finished, Waited float64
	Done, Lost                          int
	// Makespan is admission-to-finish; Throughput is Done/Makespan.
	Makespan, Throughput float64
	MeanLatency          float64
	// Remaps counts this job's reconfigurations (arrival/finish
	// re-divisions plus adaptive arbitration).
	Remaps                       int
	InitialMapping, FinalMapping string
}

// Report is the outcome of one cluster run.
type Report struct {
	Jobs []JobReport
	// Makespan is the virtual time at which the last job finished.
	Makespan float64
	// Arbitrations counts arbiter rounds (arrivals, finishes, and
	// adaptive re-divisions); Remaps and FaultRemaps mirror the
	// adaptive controller's counters.
	Arbitrations, Remaps int
	// MinWeightedShare and Jain summarise fairness over the per-job
	// weighted throughputs thr_j/w_j: the max-min objective's floor
	// and Jain's index (1 = perfectly fair).
	MinWeightedShare, Jain float64
}

func (c *Cluster) report() Report {
	rep := Report{Arbitrations: c.arbitrations}
	if c.ctrl != nil {
		st := c.ctrl.Stats()
		rep.Remaps = st.Remaps
	}
	var shares []float64
	for _, j := range c.jobs {
		jr := JobReport{
			Name:           j.spec.Name,
			State:          j.state,
			Weight:         j.spec.NormWeight(),
			Arrival:        j.spec.Arrival,
			Done:           j.done,
			Lost:           j.lost,
			Remaps:         j.remaps,
			InitialMapping: j.initialMapping,
		}
		if j.state == JobDone {
			jr.Admitted = j.admitT
			jr.Finished = j.finishT
			jr.Waited = j.admitT - j.spec.Arrival
			jr.Makespan = j.finishT - j.admitT
			if jr.Makespan > 0 {
				jr.Throughput = float64(j.done) / jr.Makespan
			}
			jr.MeanLatency = j.meanLatency
			jr.FinalMapping = j.finalMapping
			if j.finishT > rep.Makespan {
				rep.Makespan = j.finishT
			}
			shares = append(shares, jr.Throughput/jr.Weight)
		}
		rep.Jobs = append(rep.Jobs, jr)
	}
	rep.MinWeightedShare, rep.Jain = fairness(shares)
	return rep
}

// fairness summarises weighted shares: the minimum (the max-min
// objective's floor) and Jain's index (Σx)²/(n·Σx²).
func fairness(shares []float64) (min, jain float64) {
	if len(shares) == 0 {
		return math.NaN(), math.NaN()
	}
	min = math.Inf(1)
	sum, sum2 := 0.0, 0.0
	for _, x := range shares {
		if x < min {
			min = x
		}
		sum += x
		sum2 += x * x
	}
	if sum2 == 0 {
		return min, math.NaN()
	}
	jain = sum * sum / (float64(len(shares)) * sum2)
	return min, jain
}
