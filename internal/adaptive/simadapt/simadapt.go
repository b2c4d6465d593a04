// Package simadapt is the simulated substrate of the adaptive
// controller (internal/adaptive): it wires the substrate-agnostic
// monitor → forecast → decide → actuate loop to the discrete-event
// executor, so the loop runs in virtual time over a modelled grid.
//
//   - Sensor: the grid's NWS-style node-sensor bank
//     (monitor.NodeSensors) plus the executor's per-stage service and
//     completion monitors;
//   - Actuator: the analytic throughput model (internal/model) rates
//     the current mapping, the mapping search (internal/sched)
//     proposes a better one over the currently-available nodes, and
//     exec.Remap actuates it under the configured protocol;
//   - Clock: a sim.Ticker in virtual time.
//
// This wiring is behaviourally identical to the pre-refactor
// controller: golden churn digests and the F1–F10 experiment tables
// are bit-for-bit unchanged.
package simadapt

import (
	"fmt"
	"math"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
)

// Config tunes a simulated controller: the substrate-neutral
// thresholds plus the simulation-only knobs (remap protocol, mapping
// searcher). A remap may follow the last one at the next tick (no
// cooldown), and a stage may replicate over the whole grid.
type Config struct {
	Policy adaptive.Policy
	// Interval is the sensing/decision period in virtual seconds
	// (default 1).
	Interval float64
	// HysteresisGain tunes the shared trigger machinery; see
	// adaptive.Config for semantics and default.
	HysteresisGain float64
	// Protocol is how in-flight work is handled on remap.
	Protocol exec.RemapProtocol
	// Searcher finds candidate mappings (default LocalSearch).
	Searcher sched.Searcher
}

// Controller drives adaptation of one simulated executor. It wraps the
// substrate-agnostic core with the executor's fault hook: a crash or
// drain of a node the current mapping uses triggers an immediate
// remap, off-tick and regardless of hysteresis.
type Controller struct {
	*adaptive.Controller
	ex  *exec.Executor
	act *actuator
}

// New builds a controller. Call Start before running the engine. The
// executor must run the same spec on the same grid.
func New(eng *sim.Engine, g *grid.Grid, ex *exec.Executor, spec model.PipelineSpec, cfg Config) (*Controller, error) {
	return newController(g, ex, spec, cfg, clock{eng: eng})
}

// newController is New over any clock, so a test can fire one tick by
// hand.
func newController(g *grid.Grid, ex *exec.Executor, spec model.PipelineSpec, cfg Config, clk adaptive.Clock) (*Controller, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Searcher == nil {
		cfg.Searcher = sched.LocalSearch{Seed: 1}
	}
	sensors := monitor.NewNodeSensors(g, cfg.Policy.Mode())
	act := &actuator{g: g, ex: ex, spec: spec, cfg: cfg}
	core, err := adaptive.New(
		&sensor{g: g, ex: ex, spec: spec, sensors: sensors, loadBuf: make([]float64, len(sensors))},
		act,
		clk,
		adaptive.Config{Policy: cfg.Policy, Interval: cfg.Interval, HysteresisGain: cfg.HysteresisGain})
	if err != nil {
		return nil, err
	}
	return &Controller{Controller: core, ex: ex, act: act}, nil
}

// Start installs the periodic sensing/decision tick and the fault
// hook. A static controller installs nothing (see adaptive.Start).
func (c *Controller) Start() {
	if c.Policy() != adaptive.PolicyStatic {
		c.ex.SetLifecycleHook(c.onLifecycle)
	}
	c.Controller.Start()
}

// onLifecycle is the executor's fault hook. A crash — or a drain,
// which is a planned evacuation — of a node the current mapping uses
// triggers an immediate remap via the core's fault path. Rejoins and
// joins need no immediate action; the periodic tick's search mask
// already includes them.
func (c *Controller) onLifecycle(now float64, n grid.NodeID, s grid.NodeState) {
	if s == grid.Up {
		return
	}
	if !c.ex.Mapping().UsesNode(n) {
		return
	}
	c.Fault(now)
}

// sensor implements adaptive.Sensor over the grid's node sensors and
// the executor's pipeline monitor.
type sensor struct {
	g       *grid.Grid
	ex      *exec.Executor
	spec    model.PipelineSpec
	sensors monitor.NodeSensors
	loadBuf []float64
	slowBuf []float64
}

func (s *sensor) Sample(now float64) { s.sensors.Sample(now) }

// Loads returns the per-node load vector the current policy decides
// with. The slice is reused from tick to tick, which adaptive.Sensor
// allows.
func (s *sensor) Loads(mode adaptive.LoadMode, now float64) []float64 {
	s.loadBuf = s.sensors.Loads(s.loadBuf, mode, now)
	return s.loadBuf
}

func (s *sensor) Throughput(window, now float64) float64 {
	return s.ex.Monitor().RecentThroughput(window, now)
}

// Slowdowns reports windowed mean service time over specified demand
// per stage (NaN for stages with no demand or no samples yet).
func (s *sensor) Slowdowns() []float64 {
	if s.slowBuf == nil {
		s.slowBuf = make([]float64, len(s.spec.Stages))
	}
	for i, st := range s.spec.Stages {
		if st.Work <= 0 {
			s.slowBuf[i] = math.NaN()
			continue
		}
		s.slowBuf[i] = s.ex.Monitor().Stage(i).MeanService() / st.Work
	}
	return s.slowBuf
}

// actuator implements adaptive.Actuator: the analytic model rates
// configurations and exec.Remap applies them.
type actuator struct {
	g    *grid.Grid
	ex   *exec.Executor
	spec model.PipelineSpec
	cfg  Config
	// availBuf is the reusable availability mask handed to the search;
	// it stays nil (and the search unrestricted) until churn actually
	// takes a node out.
	availBuf []bool
	// scratch holds the buffers Expected rates the current mapping
	// with, so a tick allocates nothing.
	scratch model.PredictScratch
}

// Expected rates the current mapping under the load estimates. The
// analytic model already accounts for current conditions, so the
// trigger reference and the hysteresis base coincide. The spec and
// mapping were validated at construction; a failure here is a
// programming error worth surfacing loudly in simulation.
func (a *actuator) Expected(loads []float64) (reference, hysteresis float64) {
	pred, err := model.PredictInto(a.g, a.spec, a.ex.Mapping(), loads, &a.scratch)
	if err != nil {
		panic(fmt.Sprintf("adaptive: predict current mapping: %v", err))
	}
	return pred.Throughput, pred.Throughput
}

// Propose runs one mapping search over the available nodes. The search
// excludes Down/Draining nodes, and a node that rejoined (or joined
// fresh) since the last search is simply in the mask again — "folded
// into the next search" with no special casing. When churn has taken
// every node out, the search is skipped entirely: parts park in the
// executor until a rejoin restores capacity.
func (a *actuator) Propose(loads []float64) (*adaptive.Proposal, bool) {
	avail := a.availMask()
	if avail != nil {
		any := false
		for _, ok := range avail {
			if ok {
				any = true
				break
			}
		}
		if !any {
			return nil, false // nothing to map onto; wait for a rejoin
		}
	}
	cand, _, err := a.cfg.Searcher.SearchAvail(a.g, a.spec, loads, avail)
	if err != nil {
		panic(fmt.Sprintf("adaptive: search: %v", err))
	}
	cand, candPred, err := sched.ImproveWithReplicationAvail(a.g, a.spec, cand, loads, 0, avail)
	if err != nil {
		panic(fmt.Sprintf("adaptive: replication: %v", err))
	}
	old := a.ex.Mapping()
	if cand.Equal(old) {
		return nil, true
	}
	return &adaptive.Proposal{
		From:      old.Clone(), // kept in the event log
		To:        cand,
		Predicted: candPred.Throughput,
		Ref:       cand,
	}, true
}

func (a *actuator) Apply(p *adaptive.Proposal) adaptive.Actuation {
	st, err := a.ex.Remap(p.Ref.(model.Mapping), a.cfg.Protocol)
	if err != nil {
		panic(fmt.Sprintf("adaptive: remap: %v", err))
	}
	return adaptive.Actuation{
		Moved:      st.Moved,
		Killed:     st.Killed,
		RedoneWork: st.RedoneWork,
		Changed:    st.Changed,
	}
}

// availMask returns the executor's current availability as a search
// mask, or nil while every node is up (the common case, which keeps
// the no-churn decision path identical to the pre-lifecycle
// controller).
func (a *actuator) availMask() []bool {
	if a.ex.AllAvailable() {
		return nil
	}
	if a.availBuf == nil {
		a.availBuf = make([]bool, a.g.NumNodes())
	}
	for i := range a.availBuf {
		a.availBuf[i] = a.ex.Available(grid.NodeID(i))
	}
	return a.availBuf
}

// clock schedules ticks in virtual time.
type clock struct{ eng *sim.Engine }

func (c clock) Tick(interval float64, fn func(now float64)) (stop func()) {
	t := sim.NewTicker(c.eng, interval, fn)
	return t.Stop
}
