// Package adaptive implements the adaptive pipeline controller — the
// primary contribution reproduced from the paper. It closes the loop
//
//	sense performance → forecast the near future → predict candidate
//	configurations → reconfigure when the predicted gain clears a
//	hysteresis bar
//
// over an abstract substrate: the controller itself knows nothing
// about discrete-event simulation, grids, or goroutines. One substrate
// (internal/adaptive/simadapt) runs the loop in virtual time over the
// simulated executor — that is how the repository reproduces the
// paper's experiments. A second (internal/adaptive/liveadapt) runs the
// same loop on a wall clock over the live goroutine runtime, resizing
// per-stage worker pools under real CPU contention — that is the paper's
// claim done live.
//
// A substrate plugs in through three interfaces:
//
//   - Sensor: per-stage service/throughput snapshots plus per-resource
//     load estimates (last-measured, forecast, or oracle);
//   - Actuator: predicts the current configuration's throughput,
//     proposes a better configuration, and applies it (remap in
//     simulation, SetReplicas/SetWorkers live);
//   - Clock: schedules the periodic sensing/decision tick (virtual
//     time in simulation, a time.Ticker live).
//
// Three trigger policies are compared in experiment A1:
//
//   - Periodic: re-evaluate the configuration every interval regardless
//     of symptoms (the simplest correct policy, but it churns).
//   - Reactive: re-evaluate only when observed throughput degrades
//     against the substrate's expectation for the current
//     configuration, or the stage service times become imbalanced.
//   - Predictive: like Reactive, but decisions use the forecaster
//     battery's near-future estimates instead of the last measurement,
//     so the controller moves before a building load spike fully lands.
//
// An Oracle mode (true instantaneous loads, no forecast error) gives
// the upper bound reported in figure F1; only substrates that can see
// ground truth (the simulator) support it.
package adaptive

import (
	"fmt"
	"math"
	"sync"
)

// Policy selects the controller's trigger-and-estimate strategy.
type Policy int

const (
	// PolicyStatic never adapts (baseline; the controller is inert).
	PolicyStatic Policy = iota
	// PolicyPeriodic re-evaluates every interval using last-measured
	// loads.
	PolicyPeriodic
	// PolicyReactive re-evaluates when throughput degrades or stages
	// become imbalanced, using last-measured loads.
	PolicyReactive
	// PolicyPredictive is reactive triggering plus forecasted loads
	// for both the trigger and the decision.
	PolicyPredictive
	// PolicyOracle re-evaluates every interval with exact
	// instantaneous loads (no sensing or forecasting error).
	PolicyOracle
)

// String renders the policy name used in experiment tables.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyPeriodic:
		return "periodic"
	case PolicyReactive:
		return "reactive"
	case PolicyPredictive:
		return "predictive"
	case PolicyOracle:
		return "oracle"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy resolves a policy name as printed by Policy.String.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range Policies() {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("adaptive: unknown policy %q", name)
}

// Policies returns every policy in menu order.
func Policies() []Policy {
	return []Policy{PolicyStatic, PolicyPeriodic, PolicyReactive, PolicyPredictive, PolicyOracle}
}

// LoadMode is how a Sensor turns its measurement history into the
// estimates a decision uses; it is derived from the policy.
type LoadMode int

const (
	// LoadLast uses the most recent measurement.
	LoadLast LoadMode = iota
	// LoadPredicted uses the forecaster battery's near-future estimate.
	LoadPredicted
	// LoadOracle uses ground truth (simulation only).
	LoadOracle
)

// Mode returns the load-estimation mode the policy decides with.
func (p Policy) Mode() LoadMode {
	switch p {
	case PolicyOracle:
		return LoadOracle
	case PolicyPredictive:
		return LoadPredicted
	default:
		return LoadLast
	}
}

// Sensor is the observation side of one substrate.
type Sensor interface {
	// Sample takes one measurement round at time now, feeding any
	// forecasters. The controller calls it exactly once per decision.
	Sample(now float64)
	// Loads returns the per-resource estimates the actuator plans with:
	// background load per grid node in simulation, per-stage service
	// time live. The controller reads the slice only until its tick
	// returns, so a substrate may hand back a reused buffer.
	Loads(mode LoadMode, now float64) []float64
	// Throughput returns the observed pipeline exit rate over the
	// trailing window ending at now, or NaN when there is no signal.
	Throughput(window, now float64) float64
	// Slowdowns returns the per-stage ratio of observed service time to
	// nominal demand (NaN for stages without a nominal demand or
	// without samples). A healthy configuration keeps all slowdowns
	// comparable; the imbalance trigger fires on their spread.
	Slowdowns() []float64
}

// Placement renders one substrate configuration — a grid mapping, a
// replica vector — for the event log.
type Placement interface{ String() string }

// Proposal is one candidate reconfiguration returned by an Actuator.
type Proposal struct {
	// From and To describe the old and new configurations.
	From, To Placement
	// Predicted is the expected throughput after actuation, in the
	// same units as the hysteresis base returned by Expected.
	Predicted float64
	// Ref is the substrate's handle for Apply.
	Ref any
}

// Actuation reports what applying a proposal did.
type Actuation struct {
	// Moved is the number of queued items migrated (simulation).
	Moved int
	// Killed is the number of in-service items aborted (kill-restart).
	Killed int
	// RedoneWork is the reference-seconds of service discarded.
	RedoneWork float64
	// Changed reports whether the configuration actually changed.
	Changed bool
}

// Actuator is the prediction-and-actuation side of one substrate.
type Actuator interface {
	// Expected returns the current configuration's predicted
	// throughput in two roles: reference is what degradation triggers
	// compare observations against (the throughput this configuration
	// should deliver), and hysteresis is the base a candidate's
	// predicted gain is measured from. A substrate whose model already
	// accounts for current conditions returns the same value for both;
	// the live substrate anchors reference to unloaded baselines so a
	// uniform slowdown is visible as degradation.
	Expected(loads []float64) (reference, hysteresis float64)
	// Propose searches for a better configuration under the load
	// estimates. searched=false means no search could run (no live
	// resources, no measurements yet); a nil proposal with
	// searched=true means the search found nothing different from the
	// current configuration.
	Propose(loads []float64) (p *Proposal, searched bool)
	// Apply actuates a proposal returned by Propose.
	Apply(p *Proposal) Actuation
}

// Clock schedules the controller's periodic tick on the substrate's
// timeline.
type Clock interface {
	// Tick arranges fn(now) to fire every interval time units, first
	// one interval from now. The returned function cancels future
	// ticks; it must not return while an invocation of fn is running.
	Tick(interval float64, fn func(now float64)) (stop func())
}

// Config tunes a Controller. All thresholds are substrate-neutral;
// substrate-specific knobs (remap protocol, searcher, worker budget)
// live on the substrate's own config.
type Config struct {
	Policy Policy
	// Interval is the sensing/decision period in the substrate's time
	// unit — virtual seconds simulated, wall seconds live (default 1).
	Interval float64
	// DegradationFactor triggers re-evaluation when observed
	// throughput falls below this fraction of the substrate's
	// expectation for the current configuration (default 0.7).
	DegradationFactor float64
	// ImbalanceThreshold triggers re-evaluation when the max/min stage
	// slowdown ratio exceeds it (default 3).
	ImbalanceThreshold float64
	// HysteresisGain is the minimum predicted throughput ratio
	// new/current required to actually reconfigure (default 1.15). It
	// is the knob that stops oscillation; experiments F3 and A3 sweep
	// the regime where it matters.
	HysteresisGain float64
	// Cooldown is the minimum time between two reconfigurations
	// (default 0 = none). A second anti-churn guard, independent of
	// the predicted gain.
	Cooldown float64
	// ThroughputWindow is the trailing window for observed throughput
	// (default 5×Interval).
	ThroughputWindow float64
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.DegradationFactor <= 0 {
		c.DegradationFactor = 0.7
	}
	if c.ImbalanceThreshold <= 0 {
		c.ImbalanceThreshold = 3
	}
	if c.HysteresisGain <= 0 {
		c.HysteresisGain = 1.15
	}
	if c.ThroughputWindow <= 0 {
		c.ThroughputWindow = 5 * c.Interval
	}
}

// Event records one actual reconfiguration.
type Event struct {
	Time         float64
	From, To     Placement
	PredictedOld float64
	PredictedNew float64
	Stats        Actuation
	// Fault marks a reconfiguration forced by a resource failure
	// (hysteresis and trigger thresholds bypassed).
	Fault bool
}

// Stats summarises a controller's activity.
type Stats struct {
	Ticks    int
	Searches int
	Remaps   int
	// FaultRemaps counts remaps forced by resource failures, a subset
	// of Remaps.
	FaultRemaps int
	Events      []Event
}

// Controller drives adaptation of one substrate. Build with New; the
// same controller core runs simulated (deterministic, single-threaded)
// and live (ticks fire on a clock goroutine), so its entry points are
// mutex-guarded.
type Controller struct {
	sensor Sensor
	act    Actuator
	clock  Clock
	cfg    Config

	mu    sync.Mutex
	stop  func()
	stats Stats
}

// New builds a controller over one substrate's sensor, actuator, and
// clock. Call Start to begin the decision loop.
func New(sensor Sensor, act Actuator, clock Clock, cfg Config) (*Controller, error) {
	if sensor == nil || act == nil || clock == nil {
		return nil, fmt.Errorf("adaptive: nil substrate part (sensor=%t actuator=%t clock=%t)",
			sensor != nil, act != nil, clock != nil)
	}
	cfg.fillDefaults()
	return &Controller{sensor: sensor, act: act, clock: clock, cfg: cfg}, nil
}

// Policy returns the controller's trigger policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// Stats returns a copy of the controller's activity counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Events = append([]Event(nil), c.stats.Events...)
	return out
}

// Start installs the periodic sensing/decision tick. A static
// controller installs nothing: it neither adapts to load nor reacts to
// failures, which is exactly the baseline the experiments measure
// against.
func (c *Controller) Start() {
	if c.cfg.Policy == PolicyStatic {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = c.clock.Tick(c.cfg.Interval, c.tick)
}

// Stop cancels the decision loop.
func (c *Controller) Stop() {
	c.mu.Lock()
	stop := c.stop
	c.stop = nil
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// tick is one sensing/decision round.
func (c *Controller) tick(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Ticks++
	c.sensor.Sample(now)
	loads := c.sensor.Loads(c.cfg.Policy.Mode(), now)
	reference, hysteresis := c.act.Expected(loads)

	if c.cfg.Cooldown > 0 && len(c.stats.Events) > 0 &&
		now-c.stats.Events[len(c.stats.Events)-1].Time < c.cfg.Cooldown {
		return
	}
	if !c.shouldSearch(now, reference) {
		return
	}
	c.searchAndActuate(now, loads, hysteresis, false)
}

// Fault forces an immediate search-and-actuate at time now, bypassing
// the trigger thresholds, the hysteresis bar, and the cooldown.
// Substrates call it when a resource the current placement uses dies:
// any feasible configuration beats the current one, and waiting for
// the reactive throughput trigger would not even fire on a total
// stall, since a window with zero completions reads as "no signal"
// rather than "zero".
func (c *Controller) Fault(now float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sensor.Sample(now)
	loads := c.sensor.Loads(c.cfg.Policy.Mode(), now)
	// The old prediction is the substrate's view of the configuration
	// the fault just invalidated, recorded for the events table only —
	// the fault path never gates on it.
	_, hysteresis := c.act.Expected(loads)
	c.searchAndActuate(now, loads, hysteresis, true)
}

// searchAndActuate runs one configuration search and actuates when
// warranted: the shared tail of the periodic tick and the fault path.
// oldPred is the substrate's view of the current configuration,
// recorded in the event; fault bypasses the hysteresis bar (a dead
// replica already invalidated the placement) and marks the event.
func (c *Controller) searchAndActuate(now float64, loads []float64, oldPred float64, fault bool) {
	p, searched := c.act.Propose(loads)
	if !searched {
		return // nothing to plan over; wait for capacity or signal
	}
	c.stats.Searches++
	if p == nil {
		return // the search found nothing different
	}
	if !fault && p.Predicted < c.cfg.HysteresisGain*oldPred {
		return // not worth the disruption
	}
	st := c.act.Apply(p)
	if !st.Changed {
		return
	}
	c.stats.Remaps++
	if fault {
		c.stats.FaultRemaps++
	}
	c.stats.Events = append(c.stats.Events, Event{
		Time:         now,
		From:         p.From,
		To:           p.To,
		PredictedOld: oldPred,
		PredictedNew: p.Predicted,
		Stats:        st,
		Fault:        fault,
	})
}

// imbalance returns the ratio of the largest to the smallest per-stage
// slowdown reported by the sensor, or NaN until at least two stages
// have a signal. A loaded or slow resource inflates its stages'
// slowdowns only, so the spread separates placement problems from the
// pipeline simply having unequal stages.
func (c *Controller) imbalance() float64 {
	min, max := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range c.sensor.Slowdowns() {
		if math.IsNaN(s) {
			continue
		}
		n++
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if n < 2 || min <= 0 {
		return math.NaN()
	}
	return max / min
}

// shouldSearch evaluates the trigger for the current policy. expected
// is the reference throughput of the current configuration.
func (c *Controller) shouldSearch(now, expected float64) bool {
	switch c.cfg.Policy {
	case PolicyPeriodic, PolicyOracle:
		return true
	case PolicyReactive, PolicyPredictive:
		// Degradation trigger: observed vs the substrate's expectation.
		obs := c.sensor.Throughput(c.cfg.ThroughputWindow, now)
		if !math.IsNaN(obs) && expected > 0 && obs < c.cfg.DegradationFactor*expected {
			return true
		}
		// Imbalance trigger: one stage's slowdown far exceeds
		// another's — a placement problem.
		if imb := c.imbalance(); !math.IsNaN(imb) && imb > c.cfg.ImbalanceThreshold {
			return true
		}
		// Predictive additionally searches when the forecast makes the
		// current configuration look substantially worse than it was
		// promised at the last remap — i.e. trouble is coming even if
		// throughput has not collapsed yet.
		if c.cfg.Policy == PolicyPredictive {
			if len(c.stats.Events) > 0 {
				last := c.stats.Events[len(c.stats.Events)-1]
				if expected < c.cfg.DegradationFactor*last.PredictedNew {
					return true
				}
			} else if obsNaN := math.IsNaN(obs); !obsNaN && expected > 0 && obs < expected*c.cfg.DegradationFactor {
				return true
			}
		}
		return false
	default:
		return false
	}
}
