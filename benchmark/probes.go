package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"gridpipe/internal/conc"
	"gridpipe/internal/conc/steal"
	"gridpipe/internal/farm"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/ring"
	"gridpipe/internal/rng"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
	"gridpipe/internal/workload"
)

// Isolation probes: one layer at a time, through its public functions,
// outside any workload. Each is attached to the workload whose
// end-to-end numbers it is meant to explain (see README.md) and runs in
// that workload's per-layer run only.

// medianOf runs f k times and returns the median result.
func medianOf(k int, f func() float64) float64 {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// nsPerOp times n calls of op.
func nsPerOp(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start)) / float64(n)
}

type runFn func(ctx context.Context, in <-chan any) (<-chan any, <-chan error)

func identity(_ context.Context, v any) (any, error) { return v, nil }

// boundaryNs pushes n nil items through a one-stage skeleton and
// returns wall nanoseconds per item, or an error if any went missing.
func boundaryNs(n int, run runFn) (float64, error) {
	in := make(chan any, 256) // lets the feeder run ahead, as a real producer's buffer would
	out, errs := run(context.Background(), in)
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			in <- nil
		}
		close(in)
	}()
	got := 0
	for range out {
		got++
	}
	wall := time.Since(start)
	if err := <-errs; err != nil {
		return 0, err
	}
	if got != n {
		return 0, fmt.Errorf("probe: %d of %d items delivered", got, n)
	}
	return float64(wall) / float64(n), nil
}

const (
	probeItems = 100_000
	probeReps  = 3
)

// probeBoundary is the median per-item cost of probeItems items through
// a freshly built one-stage skeleton.
func probeBoundary(build func() (runFn, error)) (float64, error) {
	var firstErr error
	ns := medianOf(probeReps, func() float64 {
		run, err := build()
		var v float64
		if err == nil {
			v, err = boundaryNs(probeItems, run)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	})
	return ns, firstErr
}

// identityStage builds a 2-replica identity stage at the given grain
// (0 = the per-item wiring).
func identityStage(grain int) func() (runFn, error) {
	return func() (runFn, error) {
		p, err := pipeline.New(pipeline.Stage{Name: "probe", Fn: identity, Replicas: 2})
		if err == nil && grain > 0 {
			err = p.EnableBatch(grain, 0)
		}
		if err != nil {
			return nil, err
		}
		return p.Run, nil
	}
}

func identityFarm(unordered bool) func() (runFn, error) {
	return func() (runFn, error) {
		f, err := farm.New(identity, farm.Options{Workers: 2, Unordered: unordered})
		if err != nil {
			return nil, err
		}
		return f.Run, nil
	}
}

// probeTrickle sends 2 000 items/s through grain 64 at the default
// linger and returns the p99 send→receive latency in µs: the price a
// slow stream pays for batching.
func probeTrickle() (float64, error) {
	const n, gap = 1200, 500 * time.Microsecond
	p, err := pipeline.New(pipeline.Stage{Name: "trickle", Fn: identity, Replicas: 2})
	if err != nil {
		return 0, err
	}
	if err := p.EnableBatch(64, 0); err != nil {
		return 0, err
	}
	clk := newClock()
	sent := make([]int64, n)
	in := make(chan any)
	out, errs := p.Run(context.Background(), in)
	go func() {
		for i := range sent {
			time.Sleep(gap)
			sent[i] = clk.now()
			in <- nil
		}
		close(in)
	}()
	lat := make([]float64, 0, n)
	for range out {
		if i := len(lat); i < n {
			lat = append(lat, float64(clk.now()-sent[i])/1e3)
		}
	}
	if err := <-errs; err != nil {
		return 0, err
	}
	if len(lat) != n {
		return 0, fmt.Errorf("probe: trickle delivered %d of %d", len(lat), n)
	}
	sort.Float64s(lat)
	v, _ := tail(lat, 0.99)
	return v, nil
}

// probeSubmitRun is the median time from Submit on an idle private
// executor to the task running: the wake-up path.
func probeSubmitRun() float64 {
	const n = 2000
	ex := steal.New(runtime.GOMAXPROCS(0))
	defer ex.Close()
	clk := newClock()
	var ran int64
	done := make(chan struct{})
	task := steal.Task{Fn: func(any) {
		ran = clk.now()
		done <- struct{}{}
	}}
	lat := make([]float64, n)
	for i := range lat {
		t0 := clk.now()
		ex.Submit(task)
		<-done
		lat[i] = float64(ran - t0)
	}
	return median(lat)
}

func probeDeque() float64 {
	var dq steal.Deque
	t := steal.Task{Fn: func(any) {}}
	return nsPerOp(20_000, func(int) {
		for j := 0; j < 64; j++ {
			dq.Push(t)
		}
		for j := 0; j < 64; j++ {
			dq.Pop()
		}
	}) / 128
}

// probeLive fills the steal, pipeline, farm, ring and conc probes that
// explain chain_light.
func probeLive(m *measurement) error {
	m.set("steal.submit_run_ns", probeSubmitRun())
	m.set("steal.deque_ns_per_op", probeDeque())
	for _, p := range []struct {
		name  string
		build func() (runFn, error)
	}{
		{"pipeline.boundary_ns_per_item", identityStage(0)},
		{"pipeline.boundary_b1_ns_per_item", identityStage(1)},
		{"farm.unordered_ns_per_item", identityFarm(true)},
		{"farm.ordered_ns_per_item", identityFarm(false)},
	} {
		ns, err := probeBoundary(p.build)
		if err != nil {
			return err
		}
		m.set(p.name, ns)
	}

	// Put+PopNext with every fifth value arriving four places early.
	var ro ring.Reorder[int]
	m.set("ring.reorder_ns_per_op", nsPerOp(200_000, func(i int) {
		base := i * 5
		ro.Put(base+4, 0)
		for k := 0; k < 4; k++ {
			ro.Put(base+k, 0)
			ro.PopNext()
		}
		ro.PopNext()
	})/5)
	var q ring.FIFO[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	m.set("ring.fifo_ns_per_op", nsPerOp(1_000_000, func(i int) {
		q.Push(i)
		q.Pop()
	}))
	lim := conc.NewLimiter(2)
	m.set("conc.limiter_ns_per_op", nsPerOp(1_000_000, func(int) {
		lim.Acquire()
		lim.Release()
	}))
	var meter conc.Meter
	m.set("conc.meter_ns_per_op", nsPerOp(1_000_000, func(i int) {
		meter.Record(time.Duration(i & 1023))
	}))
	return nil
}

// probeBatched fills the grain-64 probes that explain chain_batched.
func probeBatched(m *measurement) error {
	ns, err := probeBoundary(identityStage(64))
	if err != nil {
		return err
	}
	m.set("pipeline.boundary_b64_ns_per_item", ns)
	p99, err := probeTrickle()
	if err != nil {
		return err
	}
	m.set("pipeline.b64_trickle_p99_us", p99)
	return nil
}

// probeCalendar is the event calendar's cost per Schedule+Step of a
// no-op event with 64 events pending.
func probeCalendar() float64 {
	var eng sim.Engine
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.Schedule(float64(i&7), fn)
	}
	return nsPerOp(2_000_000, func(i int) {
		eng.Schedule(float64(i&7), fn)
		eng.Step()
	})
}

// t4Config is the T4 validation configuration: 8 random-work stages
// moving 100 kB items over a 4-node heterogeneous campus grid.
func t4Config() (*grid.Grid, model.PipelineSpec, error) {
	r := rng.New(42)
	stages := make([]model.StageSpec, 8)
	for i := range stages {
		stages[i] = model.StageSpec{Name: fmt.Sprintf("s%d", i), Work: 0.05 + 0.3*r.Float64(), OutBytes: 1e5}
	}
	speeds := make([]float64, 4)
	for i := range speeds {
		speeds[i] = 0.5 + 3*r.Float64()
	}
	g, err := grid.Heterogeneous(speeds, grid.CampusLink)
	return g, model.PipelineSpec{Stages: stages, InBytes: 1e5}, err
}

// probeSched times the mapping searches and the analytic model the
// cluster arbiter leans on.
func probeSched(m *measurement) error {
	app := workload.Image()
	g, err := grid.Heterogeneous(simSpikeSpeeds, grid.LANLink)
	if err != nil {
		return err
	}
	var mapping model.Mapping
	m.set("sched.localsearch_ns", medianOf(15, func() float64 {
		t := time.Now()
		mapping, _, err = sched.LocalSearch{Seed: 1}.Search(g, app.Spec, nil)
		return float64(time.Since(t))
	}))
	if err != nil {
		return err
	}
	m.set("sched.improve_replication_ns", medianOf(15, func() float64 {
		t := time.Now()
		_, _, err = sched.ImproveWithReplication(g, app.Spec, mapping, nil, 0)
		return float64(time.Since(t))
	}))
	if err != nil {
		return err
	}
	m.set("model.predict_ns", nsPerOp(20_000, func(int) {
		_, err = model.Predict(g, app.Spec, mapping, nil)
	}))
	if err != nil {
		return err
	}

	t4, spec, err := t4Config()
	if err != nil {
		return err
	}
	var ctr sched.SearchCounters
	m.set("sched.exhaustive_t4_ns", medianOf(5, func() float64 {
		ctr = sched.SearchCounters{}
		t := time.Now()
		_, _, err = sched.Exhaustive{Counters: &ctr}.Search(t4, spec, nil)
		return float64(time.Since(t))
	}))
	m.set("sched.exhaustive_t4_evaluated", float64(ctr.Evaluated))
	return err
}

// probeWorkload times the input generators; they only ever run in
// set-up, so they move setup_s and nothing else.
func probeWorkload(m *measurement, tr workload.Trace) error {
	p := workload.NewPoisson(10, 1)
	sink := 0.0
	m.set("workload.arrival_ns_per_draw", nsPerOp(1_000_000, func(int) { sink += p.Next() }))
	if sink <= 0 {
		return fmt.Errorf("probe: Poisson gaps sum to %g", sink)
	}
	var err error
	m.set("workload.generate_trace_ns_per_job", medianOf(5, func() float64 {
		t := time.Now()
		var gen workload.Trace
		gen, err = workload.GenerateTrace(workload.NewPoisson(clusterJobRate, 1), workload.DefaultMix(), clusterHorizon, 1)
		return float64(time.Since(t)) / float64(max(len(gen), 1))
	}))
	if err != nil {
		return err
	}
	m.set("workload.trace_roundtrip_ns_per_job", medianOf(5, func() float64 {
		var buf bytes.Buffer
		t := time.Now()
		if err = tr.Write(&buf); err == nil {
			_, err = workload.ReadTrace(&buf)
		}
		return float64(time.Since(t)) / float64(len(tr))
	}))
	return err
}
