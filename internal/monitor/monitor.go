// Package monitor implements the run-time instrumentation the
// adaptivity engine consumes: per-stage service samples,
// pipeline throughput probes, node-load sensors, and the estimators
// behind them. An estimator feeds the forecaster an estimate under the
// controller's load mode reads: the NWS-style battery under
// LoadPredicted, the last measurement under any other mode.
//
// In a deployed grid the sensors would be NWS daemons; in this
// reproduction they sample the simulated load traces at the same
// cadence a daemon would measure, so the adaptation logic sees exactly
// the kind of signal it was designed for.
package monitor

import (
	"fmt"
	"math"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/forecast"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/stats"
)

// DefaultWindow is the number of recent samples retained per stage.
const DefaultWindow = 32

// StageMonitor accumulates timing observations for one pipeline stage.
type StageMonitor struct {
	service  *stats.Ring
	lastDone float64
	// exponentially smoothed inter-departure time; its inverse is the
	// stage's observed throughput.
	interDep *stats.EWMA
}

// NewStageMonitor returns a stage monitor keeping the last window samples.
func NewStageMonitor(window int) *StageMonitor {
	return &StageMonitor{
		service:  stats.NewRing(window),
		interDep: stats.NewEWMA(0.2),
		lastDone: math.NaN(),
	}
}

// RecordService notes that the stage finished processing one item at
// time now, having spent dur seconds of service.
func (m *StageMonitor) RecordService(dur, now float64) {
	m.service.Add(dur)
	if !math.IsNaN(m.lastDone) && now > m.lastDone {
		m.interDep.Add(now - m.lastDone)
	}
	m.lastDone = now
}

// MeanService returns the windowed mean service time (NaN when no
// samples).
func (m *StageMonitor) MeanService() float64 { return m.service.Mean() }

// Throughput returns the observed departure rate (items/s) from the
// smoothed inter-departure time, or NaN before two departures.
func (m *StageMonitor) Throughput() float64 {
	d := m.interDep.Value()
	if math.IsNaN(d) || d <= 0 {
		return math.NaN()
	}
	return 1 / d
}

// Reset clears the sample windows. Called after a remap so stale
// observations from the old mapping do not pollute decisions about the
// new one.
func (m *StageMonitor) Reset() {
	m.service.Reset()
	m.lastDone = math.NaN()
	m.interDep = stats.NewEWMA(0.2)
}

// Monitor aggregates per-stage monitors plus pipeline-exit events.
type Monitor struct {
	stages      []*StageMonitor
	completions []float64 // times at which items left the pipeline
}

// New returns a monitor for a pipeline of ns stages, each keeping the
// last DefaultWindow samples.
func New(ns int) *Monitor {
	if ns <= 0 {
		panic(fmt.Sprintf("monitor: New with %d stages", ns))
	}
	m := &Monitor{stages: make([]*StageMonitor, ns)}
	for i := range m.stages {
		m.stages[i] = NewStageMonitor(DefaultWindow)
	}
	return m
}

// NumStages returns the number of stages monitored.
func (m *Monitor) NumStages() int { return len(m.stages) }

// Stage returns the monitor of stage i.
func (m *Monitor) Stage(i int) *StageMonitor { return m.stages[i] }

// RecordCompletion notes that an item left the last stage at time now.
func (m *Monitor) RecordCompletion(now float64) {
	m.completions = append(m.completions, now)
}

// Completions returns the pipeline exit times (shared slice).
func (m *Monitor) Completions() []float64 { return m.completions }

// RecentThroughput returns the exit rate over the trailing window
// (items/s) at time now, or NaN when nothing completed in the window.
func (m *Monitor) RecentThroughput(window, now float64) float64 {
	if window <= 0 {
		panic("monitor: RecentThroughput with non-positive window")
	}
	// Half-open window (now-window, now]: an item exactly at the
	// window's trailing edge has aged out.
	count := 0
	for i := len(m.completions) - 1; i >= 0; i-- {
		if m.completions[i] <= now-window {
			break
		}
		count++
	}
	if count == 0 {
		return math.NaN()
	}
	return float64(count) / window
}

// ResetStages clears every stage window (see StageMonitor.Reset).
func (m *Monitor) ResetStages() {
	for _, s := range m.stages {
		s.Reset()
	}
}

// Estimator wraps a forecaster with the fallback glue every estimate
// path previously duplicated: feed raw measurements in, read either
// the last value or a clamped forecast out.
type Estimator struct {
	fc   forecast.Forecaster
	last float64
}

// NewEstimator returns an estimator fed with what an estimate under
// mode reads (see forecasterFor).
func NewEstimator(mode adaptive.LoadMode) *Estimator {
	return newEstimator(forecasterFor(mode))
}

func newEstimator(fc forecast.Forecaster) *Estimator {
	return &Estimator{fc: fc, last: math.NaN()}
}

// forecasterFor picks the forecaster an estimate under mode needs: the
// default NWS-style battery under LoadPredicted, the one mode that reads
// a forecast, and a last-value tracker under any other, which reads only
// the last measurement and would feed a battery for nothing.
func forecasterFor(mode adaptive.LoadMode) forecast.Forecaster {
	if mode == adaptive.LoadPredicted {
		return forecast.NewDefaultBattery()
	}
	return forecast.NewLastValue()
}

// Observe feeds one measurement.
func (e *Estimator) Observe(v float64) {
	e.last = v
	e.fc.Observe(v)
}

// Last returns the most recent measurement (NaN before sampling).
func (e *Estimator) Last() float64 { return e.last }

// Predicted returns the forecast of the near future clamped to
// [lo, hi], falling back to the last measurement and then to lo.
// Forecasts may overshoot slightly; the clamp keeps them physical.
func (e *Estimator) Predicted(lo, hi float64) float64 {
	p := e.fc.Predict()
	if math.IsNaN(p) {
		p = e.last
	}
	if math.IsNaN(p) {
		return lo
	}
	return math.Min(math.Max(p, lo), hi)
}

// NodeSensor periodically samples one node's background load and feeds
// a forecaster, mimicking an NWS CPU-availability sensor for that host.
type NodeSensor struct {
	node *grid.Node
	est  *Estimator
}

// NewNodeSensor returns a sensor for node backed by the given
// forecaster.
func NewNodeSensor(node *grid.Node, fc forecast.Forecaster) *NodeSensor {
	return &NodeSensor{node: node, est: newEstimator(fc)}
}

// Sample measures the node's instantaneous load at time t and feeds the
// forecaster.
func (s *NodeSensor) Sample(t float64) {
	l := 0.0
	if s.node.Load != nil {
		l = s.node.Load.At(t)
	}
	s.est.Observe(l)
}

// PredictedLoad returns the forecast of near-future load, falling back
// to the last measurement and then to 0, clamped by model.ClampLoad.
func (s *NodeSensor) PredictedLoad() float64 {
	return model.ClampLoad(s.est.Predicted(0, math.Inf(1)))
}

// Estimate returns the load number the given mode decides with: the
// ground-truth trace for LoadOracle, the clamped forecast for
// LoadPredicted, and the last measurement (0 before any) otherwise.
func (s *NodeSensor) Estimate(mode adaptive.LoadMode, now float64) float64 {
	switch mode {
	case adaptive.LoadOracle:
		if s.node.Load != nil {
			return s.node.Load.At(now)
		}
		return 0
	case adaptive.LoadPredicted:
		return s.PredictedLoad()
	default:
		l := s.est.Last()
		if math.IsNaN(l) {
			return 0
		}
		return l
	}
}

// NodeSensors is the node-sensing bank of a controller over a grid: one
// NodeSensor per node, indexed by grid.NodeID. The simulated controller
// and the cluster arbiter both hold one.
type NodeSensors []*NodeSensor

// NewNodeSensors returns a bank over every node of g whose sensors feed
// the forecaster an estimate under mode reads (see forecasterFor).
func NewNodeSensors(g *grid.Grid, mode adaptive.LoadMode) NodeSensors {
	ns := make(NodeSensors, g.NumNodes())
	for i := range ns {
		ns[i] = NewNodeSensor(g.Node(grid.NodeID(i)), forecasterFor(mode))
	}
	return ns
}

// Sample measures every node at time now.
func (ns NodeSensors) Sample(now float64) {
	for _, s := range ns {
		s.Sample(now)
	}
}

// Loads writes every node's estimate under mode into dst, growing it
// only when its capacity is short, and returns it.
func (ns NodeSensors) Loads(dst []float64, mode adaptive.LoadMode, now float64) []float64 {
	if cap(dst) < len(ns) {
		dst = make([]float64, len(ns))
	}
	dst = dst[:len(ns)]
	for i, s := range ns {
		dst[i] = s.Estimate(mode, now)
	}
	return dst
}
