// Package grid models the computational substrate: heterogeneous
// processors with time-varying background load, connected by a network
// with per-pair latency and bandwidth. It is the simulated stand-in for
// the grid testbed of the original evaluation (see DESIGN.md,
// reconstruction decision 1).
//
// Conventions:
//   - Work is measured in reference-seconds: the time the job takes on
//     an unloaded node of speed 1.0.
//   - A node of speed s with background load l(t) progresses through
//     work at rate s*(1-l(t)) reference-seconds per second.
//   - Message cost between nodes i and j is latency(i,j) +
//     bytes/bandwidth(i,j); intra-node transfers are free.
package grid

import (
	"fmt"
	"math"

	"gridpipe/internal/trace"
)

// NodeID identifies a processor within a Grid.
type NodeID int

// DefaultQuantum is the integration step used when computing service
// durations under time-varying load. Completion times are exact for
// load that is constant over the quantum (all bundled traces are
// piecewise constant at ≥ quantum resolution or smooth enough that the
// error is far below scheduling noise).
const DefaultQuantum = 0.05

// Node is one grid processor.
type Node struct {
	ID    NodeID
	Name  string
	Speed float64 // relative speed; 1.0 is the reference processor
	Cores int     // tasks that may run concurrently at full speed

	// Load is the background-load trace; nil means permanently idle.
	Load trace.Trace

	// Quantum is the service-time integration step; zero means
	// DefaultQuantum.
	Quantum float64

	// state is the node's run-time availability (zero value Up). It is
	// mutated by the executor's churn driver; a grid must not be shared
	// by concurrently running executors.
	state NodeState
}

// State returns the node's current availability.
func (n *Node) State() NodeState { return n.state }

// SetState transitions the node's availability. The executor's churn
// driver is the intended caller; it keeps the routing/search layers in
// sync with the transition.
func (n *Node) SetState(s NodeState) { n.state = s }

// EffectiveSpeed returns the instantaneous processing rate at time t in
// reference-seconds of work per second.
func (n *Node) EffectiveSpeed(t float64) float64 {
	l := 0.0
	if n.Load != nil {
		l = n.Load.At(t)
	}
	return n.Speed * (1 - l)
}

// ServiceDuration returns how long the node takes to execute work
// reference-seconds starting at time start, integrating the
// time-varying effective speed. It panics on negative work; zero work
// completes instantly.
func (n *Node) ServiceDuration(work, start float64) float64 {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("grid: ServiceDuration with invalid work %v", work))
	}
	if work == 0 {
		return 0
	}
	q := n.Quantum
	if q <= 0 {
		q = DefaultQuantum
	}
	remaining := work
	t := start
	// Hard cap so a (buggy) zero-speed node cannot hang the simulator;
	// MaxLoad guarantees speed ≥ 2% of nominal, so this is generous.
	const maxIter = 50_000_000
	for iter := 0; iter < maxIter; iter++ {
		sp := n.EffectiveSpeed(t)
		if sp <= 0 {
			// Node fully stalled (outage); skip forward one quantum.
			t += q
			continue
		}
		finish := remaining / sp
		if finish <= q {
			return t + finish - start
		}
		remaining -= sp * q
		t += q
	}
	panic(fmt.Sprintf("grid: node %q made no progress on %v work", n.Name, work))
}

// WorkIn returns the reference-seconds of work the node processes in
// [start, start+dur] at full capacity, integrating the time-varying
// effective speed with the same quantum as ServiceDuration — its
// inverse, up to quantisation at the interval tail. The cluster
// executor uses it to account partial service when a task's capacity
// share changes mid-service (see exec.NodeShares).
func (n *Node) WorkIn(start, dur float64) float64 {
	if dur <= 0 || math.IsNaN(dur) {
		return 0
	}
	q := n.Quantum
	if q <= 0 {
		q = DefaultQuantum
	}
	done := 0.0
	t := start
	left := dur
	for left > q {
		done += n.EffectiveSpeed(t) * q
		t += q
		left -= q
	}
	return done + n.EffectiveSpeed(t)*left
}

// validate reports configuration errors; the Grid builder calls it.
func (n *Node) validate() error {
	if n.Speed <= 0 || math.IsNaN(n.Speed) {
		return fmt.Errorf("grid: node %q has non-positive speed %v", n.Name, n.Speed)
	}
	if n.Cores <= 0 {
		return fmt.Errorf("grid: node %q has non-positive cores %d", n.Name, n.Cores)
	}
	return nil
}
