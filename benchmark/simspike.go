package main

import (
	"fmt"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/adaptive/simadapt"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

// simSpike is the paper's headline experiment in virtual time: the
// image pipeline on 8 heterogeneous nodes, a 0.85 background-load step
// at t=200 on the node hosting the heavy stage, run once with the
// deployment-time mapping held (static) and once under the reactive
// controller.
type simSpike struct {
	app     workload.App
	grid    *grid.Grid
	initial model.Mapping
	items   int
	seed    uint64
	clk     clock
}

// simSpikeSpeeds are the relative speeds of sim_spike's eight nodes.
var simSpikeSpeeds = []float64{1, 1.25, 1.5, 1, 1.25, 1.5, 1, 1.25}

// simRun is one policy's run: the virtual outputs, which repeat
// bit-for-bit, and the wall-clock cost, which does not.
type simRun struct {
	makespan           float64
	events             int
	remaps, migrations int
	lost, done         int
	wall               time.Duration
}

func (w *simSpike) setup(cfg runCfg) error {
	w.app, w.seed, w.clk = workload.Image(), cfg.seed, newClock()
	w.items = cfg.scale(1_000_000)
	g, err := grid.Heterogeneous(simSpikeSpeeds, grid.LANLink)
	if err != nil {
		return err
	}
	cfg.spans.timed(w.clk, "sched.Search", "", "sim_spike/setup", func() {
		w.initial, _, err = sched.LocalSearch{Seed: w.seed}.Search(g, w.app.Spec, nil)
		if err == nil {
			w.initial, _, err = sched.ImproveWithReplication(g, w.app.Spec, w.initial, nil, 0)
		}
	})
	if err != nil {
		return err
	}
	victim := w.initial.Assign[1][0]
	g.Node(victim).Load = trace.NewSteps(0, trace.StepChange{T: 200, Load: 0.85})
	w.grid = g
	_, err = w.run(adaptive.PolicyStatic, max(w.items/20, 100))
	return err
}

// run executes items under the policy. The benchmark steps the engine
// itself, as exec.RunItems does, so that it can count events.
func (w *simSpike) run(policy adaptive.Policy, items int) (simRun, error) {
	var eng sim.Engine
	ex, err := exec.New(&eng, w.grid, w.app.Spec, w.initial, exec.Options{
		MaxInFlight: 4 * w.app.Spec.NumStages(),
		TotalItems:  items,
		WorkSampler: w.app.Sampler(w.seed),
		Seed:        w.seed,
	})
	if err != nil {
		return simRun{}, err
	}
	ctrl, err := simadapt.New(&eng, w.grid, ex, w.app.Spec, simadapt.Config{
		Policy:   policy,
		Searcher: sched.LocalSearch{Seed: w.seed + 1},
	})
	if err != nil {
		return simRun{}, err
	}
	ctrl.Start()
	var r simRun
	start := time.Now()
	ex.Start()
	for ex.Done()+ex.Lost() < items && eng.Step() {
		r.events++
	}
	r.wall = time.Since(start)
	ctrl.Stop()
	r.makespan, r.done, r.lost = eng.Now(), ex.Done(), ex.Lost()
	r.remaps, r.migrations = ctrl.Stats().Remaps, ex.Migrations()
	if r.done+r.lost != items {
		return r, fmt.Errorf("sim_spike: %v run finished %d and lost %d of %d items", policy, r.done, r.lost, items)
	}
	return r, nil
}

// sameVirtual reports whether two runs agree on everything computed in
// virtual time.
func (r simRun) sameVirtual(o simRun) bool {
	return r.makespan == o.makespan && r.events == o.events && r.remaps == o.remaps &&
		r.migrations == o.migrations && r.lost == o.lost && r.done == o.done
}

func (w *simSpike) measure(cfg runCfg, m *measurement) error {
	var (
		static, reactive []simRun
		items            []float64
		walls            []time.Duration
	)
	err := repLoop(cfg.budget(), 1, func(i int) error {
		id := fmt.Sprintf("sim_spike/rep%d", i)
		var s, r simRun
		var err error
		cfg.spans.timed(w.clk, "exec.static", "", id, func() { s, err = w.run(adaptive.PolicyStatic, w.items) })
		if err != nil {
			return err
		}
		cfg.spans.timed(w.clk, "exec.reactive", "", id, func() { r, err = w.run(adaptive.PolicyReactive, w.items) })
		if err != nil {
			return err
		}
		m.Attempted += int64(2 * w.items)
		m.Failed += int64(s.lost + r.lost)
		if i > 0 && !(s.sameVirtual(static[0]) && r.sameVirtual(reactive[0])) {
			m.Failed += int64(2 * w.items) // virtual time must repeat exactly
		}
		static, reactive = append(static, s), append(reactive, r)
		items = append(items, float64(2*w.items))
		walls = append(walls, s.wall+r.wall)
		return nil
	})
	if err != nil {
		return err
	}
	wholeRun(m, items, walls)
	if !cfg.traced {
		return nil
	}

	var sWall, ratio, evPerS []float64
	for i := range static {
		s, r := static[i], reactive[i]
		sWall = append(sWall, float64(s.wall)/float64(w.items))
		ratio = append(ratio, r.wall.Seconds()/s.wall.Seconds())
		evPerS = append(evPerS, float64(s.events+r.events)/(s.wall+r.wall).Seconds())
	}
	s, r := static[0], reactive[0]
	m.set("adaptive_speedup", s.makespan/r.makespan)
	m.set("sim.events", float64(s.events+r.events))
	m.set("sim.events_per_s", median(evPerS))
	m.set("exec.events_per_item", float64(s.events)/float64(w.items))
	m.set("exec.static_ns_per_item", median(sWall))
	m.set("simadapt.wall_ratio", median(ratio))
	m.set("simadapt.remaps", float64(r.remaps))
	m.set("simadapt.migrations", float64(r.migrations))
	m.set("exec.makespan_static_s", s.makespan)
	m.set("exec.makespan_reactive_s", r.makespan)
	m.set("failed_share", float64(m.Failed)/float64(m.Attempted))
	m.set("sim.calendar_ns_per_event", probeCalendar())
	return nil
}
