package cluster

// Tenant-seam partitioned execution: the cluster layer's wiring of the
// partitioned simulation core (sim.ParallelEngine). Lease boundaries
// are the natural partition seams of a multi-tenant run — tenants on
// disjoint pinned leases interact only through arbiter notifications,
// which ride cross-partition links — so each tenant group advances on
// its own event calendar in parallel, synchronized conservatively at
// windows bounded by the minimum cross-lease link latency.
//
// The partitioned runner deliberately covers the static corner of the
// cluster: pinned disjoint leases, no admission queue, no adaptive
// re-arbitration, no churn (all of which couple tenants mid-window
// and belong on the single-engine Cluster). That corner is exactly the
// shape of the large scaling experiments — N independent tenants over
// one big grid — where a single-threaded calendar burns wall-clock on
// one core. Reports are bit-identical for every partition and worker
// count: each tenant's event stream is computed by its own executor
// from its own seeded streams, untouched by window placement.

import (
	"fmt"
	"runtime"

	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
	"gridpipe/internal/workload"
)

// PinnedJob is one tenant of a partitioned run: a job statically
// leased to an explicit, disjoint node set.
type PinnedJob struct {
	Spec  model.JobSpec
	Nodes []grid.NodeID
}

// PartitionedOptions tunes RunPartitioned.
type PartitionedOptions struct {
	// Parts is the partition count. Tenants are dealt round-robin into
	// partitions, so Parts is capped at the tenant count. 0 picks
	// min(NumCPU, tenants); 1 is the single-threaded golden path
	// (bit-identical to any other partition count, just slower).
	Parts int
	// Workers bounds the OS-level parallelism (0 = GOMAXPROCS). Any
	// value produces the same report; only wall-clock changes.
	Workers int
	// MaxInFlight is the per-job CONWIP window (0 = 4× stage count).
	MaxInFlight int
	// MaxReplicas bounds per-stage replication width (0 = lease size).
	MaxReplicas int
	// Seed is the root seed; every job derives its own keyed
	// sub-streams exactly as the single-engine Cluster does.
	Seed uint64
}

// pjob is one tenant's run-time state.
type pjob struct {
	run     *partitionedRun
	id      int
	spec    model.JobSpec
	mask    model.CapacityMask
	mapping model.Mapping
	shard   *sim.Shard
	ex      *exec.Executor

	done, lost int
	finishT    float64
	finished   bool
	// Taken from the executor when the tenant finishes; a finished
	// tenant keeps no executor.
	meanLatency  float64
	finalMapping string
}

// partitionedRun is the coordinator state shared by the tenants.
type partitionedRun struct {
	eng     *sim.ParallelEngine
	beacon  float64 // finish-notification latency (>= engine lookahead)
	beacons int     // finish notifications received by partition 0
}

// RunPartitioned executes the pinned tenants to completion over the
// grid on a partitioned engine and returns the usual cluster Report
// (Arbitrations counts the finish notifications the coordinator
// partition received). The report is identical for every Parts and
// Workers choice; Parts=1 is the single-threaded reference.
func RunPartitioned(g *grid.Grid, jobs []PinnedJob, opt PartitionedOptions) (Report, error) {
	if g == nil {
		return Report{}, fmt.Errorf("cluster: nil grid")
	}
	if len(jobs) == 0 {
		return Report{}, fmt.Errorf("cluster: no jobs")
	}
	if g.Churn() != nil {
		return Report{}, fmt.Errorf("cluster: partitioned run does not support churn (node lifecycle couples tenants mid-window; use Cluster)")
	}
	parts := opt.Parts
	if parts == 0 {
		parts = runtime.NumCPU()
	}
	if parts < 0 {
		return Report{}, fmt.Errorf("cluster: invalid partition count %d", opt.Parts)
	}
	if parts > len(jobs) {
		parts = len(jobs)
	}

	// Validate specs and build the disjoint leases.
	np := g.NumNodes()
	leases := make([]model.CapacityMask, len(jobs))
	owner := make([]int, np)
	for n := range owner {
		owner[n] = -1
	}
	for i, pj := range jobs {
		spec := pj.Spec
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("job%d", i)
			jobs[i].Spec.Name = spec.Name
		}
		if err := spec.Validate(np); err != nil {
			return Report{}, err
		}
		if len(pj.Nodes) == 0 {
			return Report{}, fmt.Errorf("cluster: pinned job %q with no nodes", spec.Name)
		}
		mask := make(model.CapacityMask, np)
		for _, n := range pj.Nodes {
			if int(n) < 0 || int(n) >= np {
				return Report{}, fmt.Errorf("cluster: pinned job %q names invalid node %d", spec.Name, n)
			}
			if o := owner[n]; o >= 0 {
				return Report{}, fmt.Errorf("cluster: node %d leased to both %q and %q (partitioned leases must be disjoint)",
					n, jobs[o].Spec.Name, spec.Name)
			}
			owner[n] = i
			mask[n] = true
		}
		leases[i] = mask
	}

	// Tenant-seam partition plan: tenants deal round-robin into
	// partitions, the lookahead is the minimum link latency crossing a
	// partition boundary.
	partMasks := make([]model.CapacityMask, parts)
	for p := range partMasks {
		partMasks[p] = make(model.CapacityMask, np)
	}
	for i := range jobs {
		p := i % parts
		for n, ok := range leases[i] {
			if ok {
				partMasks[p][n] = true
			}
		}
	}
	plan, err := exec.PlanByMasks(g, partMasks)
	if err != nil {
		return Report{}, err
	}
	if parts > 1 && plan.Lookahead <= 0 {
		return Report{}, fmt.Errorf("cluster: zero cross-partition link latency leaves no conservative lookahead; repartition or fix the grid's links")
	}

	run := &partitionedRun{eng: sim.NewParallel(parts, plan.Lookahead), beacon: plan.Lookahead}
	run.eng.SetWorkers(opt.Workers)

	pjobs := make([]*pjob, len(jobs))
	for i := range jobs {
		spec := jobs[i].Spec
		seed := rng.SeedFor(opt.Seed, uint64(i))
		m, _, err := sched.SearchAvailable(sched.LocalSearch{Seed: rng.SeedFor(seed, 1)}, g, spec.Spec, nil, leases[i])
		if err != nil {
			return Report{}, fmt.Errorf("cluster: job %q search: %w", spec.Name, err)
		}
		m, _, err = sched.ImproveWithReplicationAvail(g, spec.Spec, m, nil, opt.MaxReplicas, leases[i])
		if err != nil {
			return Report{}, fmt.Errorf("cluster: job %q replicate: %w", spec.Name, err)
		}
		j := &pjob{run: run, id: i, spec: spec, mask: leases[i], mapping: m, shard: run.eng.Part(i % parts)}
		app := workload.App{Name: spec.Name, Spec: spec.Spec, CV: spec.CV}
		maxIF := opt.MaxInFlight
		if maxIF <= 0 {
			maxIF = 4 * spec.Spec.NumStages()
		}
		ex, err := exec.New(&j.shard.Engine, g, spec.Spec, m, exec.Options{
			MaxInFlight: maxIF,
			TotalItems:  spec.Items,
			WorkSampler: app.Sampler(rng.SeedFor(seed, 2)),
			Seed:        rng.SeedFor(seed, 3),
		})
		if err != nil {
			return Report{}, fmt.Errorf("cluster: job %q executor: %w", spec.Name, err)
		}
		j.ex = ex
		ex.SetItemHooks(
			func(int) { j.done++; j.checkFinished() },
			func(int) { j.lost++; j.checkFinished() },
		)
		j.shard.AtArg(spec.Arrival, pstartFire, j)
		pjobs[i] = j
	}

	run.eng.Run()

	rep := Report{Arbitrations: run.beacons}
	var shares []float64
	for _, j := range pjobs {
		if !j.finished {
			return Report{}, fmt.Errorf("cluster: job %q finished %d+%d of %d items (deadlock?)",
				j.spec.Name, j.done, j.lost, j.spec.Items)
		}
		jr := JobReport{
			Name:           j.spec.Name,
			State:          JobDone,
			Weight:         j.spec.NormWeight(),
			Arrival:        j.spec.Arrival,
			Admitted:       j.spec.Arrival, // pinned leases: no admission queue
			Finished:       j.finishT,
			Done:           j.done,
			Lost:           j.lost,
			Makespan:       j.finishT - j.spec.Arrival,
			InitialMapping: j.mapping.String(),
			MeanLatency:    j.meanLatency,
			FinalMapping:   j.finalMapping,
		}
		if jr.Makespan > 0 {
			jr.Throughput = float64(j.done) / jr.Makespan
		}
		if j.finishT > rep.Makespan {
			rep.Makespan = j.finishT
		}
		shares = append(shares, jr.Throughput/jr.Weight)
		rep.Jobs = append(rep.Jobs, jr)
	}
	rep.MinWeightedShare, rep.Jain = fairness(shares)
	return rep, nil
}

// pstartFire starts a tenant's executor at its arrival time; the
// shared trampoline keeps arrivals allocation-free.
func pstartFire(arg any) {
	j := arg.(*pjob)
	j.ex.Start()
}

// checkFinished records the tenant's completion and notifies the
// coordinator partition — the cross-partition "finish re-lease" event
// of the partitioned protocol, delivered at the next window edge.
func (j *pjob) checkFinished() {
	if j.finished || j.done+j.lost < j.spec.Items {
		return
	}
	j.finished = true
	j.finishT = j.shard.Now()
	j.meanLatency, j.finalMapping = meanLatency(j.ex), j.ex.Mapping().String()
	j.ex = nil
	j.shard.Send(0, j.run.beacon, pfinishFire, j)
}

// pfinishFire runs on the coordinator partition: it tallies finish
// notifications (surfaced as Report.Arbitrations).
func pfinishFire(arg any) {
	j := arg.(*pjob)
	j.run.beacons++
}
