// Package liveadapt is the live substrate of the adaptive controller
// (internal/adaptive): the same monitor → forecast → decide → actuate
// loop that drives the simulator, wired to the goroutine runtime so a
// running pipeline rebalances its per-stage worker pools under real
// CPU contention.
//
//   - Sensor: a wall-clock ticker diffs each stage's conc.Meter totals
//     into windowed mean service times, feeds them to one
//     monitor.Estimator per stage, built for the policy's load mode as
//     the simulated node sensors are (a forecaster battery only under
//     the predictive policy), and reads the exit rate off the last
//     stage's count;
//   - Actuator: a worker-budget apportioner — conc.Apportion splits
//     MaxWorkers over the replicable stages bottleneck first, each
//     worker to the stage with the fewest workers per (forecast)
//     service second — actuating via
//     pipeline.SetReplicas; under AdaptGrain, a grain walker over the
//     pipeline's one grain (Target.Grain, SetGrain), which the head
//     batcher applies to every slab it forms;
//   - Clock: a time.Ticker.
//
// The controller reads the stages as the pipeline's model spec
// ([]model.StageSpec): Replicable says which it may resize, Work
// normalises their observed service times.
//
// Because the live substrate has no load-aware analytic model, the
// degradation trigger's reference throughput is anchored to the best
// (least-loaded) service times ever observed per stage: a uniform
// slowdown — exactly what background CPU load inflicts — is then
// visible as observed-vs-reference degradation, where a model that
// re-rates the current configuration under current conditions would
// chase the degradation downwards and never trigger. The hysteresis
// base, by contrast, uses current service times so a candidate's
// predicted gain is measured under the conditions it would actually
// run in. Experiment F11 demonstrates the closed loop recovering
// throughput that injected background load took away.
package liveadapt

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/conc"
	"gridpipe/internal/model"
	"gridpipe/internal/monitor"
	"gridpipe/internal/pipeline"
)

// Target is the live resize surface the actuator drives: the
// stage-graph pipeline.
type Target interface {
	// NumStages returns the number of resizable stages.
	NumStages() int
	// Replicas returns stage i's current worker limit.
	Replicas(i int) int
	// SetReplicas changes stage i's worker limit while running.
	SetReplicas(i, n int) error
	// Totals returns stage i's cumulative completed-item count and
	// summed service time (diffed into windowed means by the sensor).
	Totals(i int) (count int64, sum time.Duration)
	// Grain returns the batch size the head packs slabs to.
	Grain() int
	// SetGrain changes the batch size while running.
	SetGrain(n int) error
}

// pipelineTarget adapts *pipeline.Pipeline.
type pipelineTarget struct{ p *pipeline.Pipeline }

func (t pipelineTarget) NumStages() int                      { return t.p.NumStages() }
func (t pipelineTarget) Replicas(i int) int                  { return t.p.Replicas(i) }
func (t pipelineTarget) SetReplicas(i, n int) error          { return t.p.SetReplicas(i, n) }
func (t pipelineTarget) Totals(i int) (int64, time.Duration) { return t.p.StageTotals(i) }
func (t pipelineTarget) Grain() int                          { return t.p.Grain() }
func (t pipelineTarget) SetGrain(n int) error                { return t.p.SetGrain(n) }

// Config tunes a live controller. The trigger machinery runs on
// adaptive.Config's defaults, with a cooldown of 2×Interval between
// two resizes: live resizes are cheap, but worker-pool growth ramps
// over items, so back-to-back decisions would act on stale evidence.
type Config struct {
	Policy adaptive.Policy
	// Interval is the wall-clock sensing/decision period
	// (default 250 ms).
	Interval time.Duration
	// MaxWorkers is the total worker budget across all stages
	// (default 2×GOMAXPROCS). It is the live counterpart of the
	// simulator's elastic reserves: capacity the controller may fold
	// in when the observed throughput degrades.
	MaxWorkers int
	// AdaptGrain enables the granularity actuator: the controller
	// walks the target's batch size (the pipeline's grain) in
	// doubling and halving steps paced by the cooldown, up to
	// maxGrain, keeping a step whose observed throughput clears the
	// walk's margin and reverting one that costs it (see grainWalk).
	// Requires a non-static policy (PolicyStatic never ticks).
	AdaptGrain bool
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 2 * runtime.GOMAXPROCS(0)
	}
}

// cooldown is the minimum wall time between two resizes or grain steps.
func (c Config) cooldown() time.Duration { return 2 * c.Interval }

// Replicas is a worker-count vector; it is the live substrate's
// adaptive.Placement.
type Replicas []int

// String renders the vector like "[1 4 2 1]".
func (r Replicas) String() string { return fmt.Sprint([]int(r)) }

// Controller drives live adaptation of one pipeline.
type Controller struct {
	*adaptive.Controller
	sub *liveSub
}

// ForPipeline builds a live controller over a pipeline. stages is the
// pipeline's model spec (nil = every stage replicable at work 1) and
// must match its stage count: Replicable marks the stages the
// controller may resize, and Work, the nominal per-item demand (only
// ratios matter), normalises observed service times for the imbalance
// trigger (default 1). PolicyOracle is rejected: the live substrate has
// no ground truth to consult. The controller stops with the pipeline's
// run (Pipeline.OnDone), so the caller Starts it before Run and never
// stops it.
func ForPipeline(p *pipeline.Pipeline, stages []model.StageSpec, cfg Config) (*Controller, error) {
	c, err := newController(pipelineTarget{p: p}, stages, cfg)
	if err != nil {
		return nil, err
	}
	p.OnDone(c.Stop)
	return c, nil
}

func newController(target Target, stages []model.StageSpec, cfg Config) (*Controller, error) {
	if cfg.Policy == adaptive.PolicyOracle {
		return nil, fmt.Errorf("liveadapt: PolicyOracle needs ground-truth loads; the live substrate has none")
	}
	cfg.fillDefaults()
	n := target.NumStages()
	if stages == nil {
		stages = make([]model.StageSpec, n)
		for i := range stages {
			stages[i] = model.StageSpec{Name: fmt.Sprintf("stage%d", i), Replicable: true}
		}
	}
	if len(stages) != n {
		return nil, fmt.Errorf("liveadapt: %d stage specs for %d stages", len(stages), n)
	}
	// A copy: the defaults below must not write into the caller's spec.
	stages = append([]model.StageSpec(nil), stages...)
	anyReplicable := false
	for i := range stages {
		if stages[i].Work <= 0 {
			stages[i].Work = 1
		}
		anyReplicable = anyReplicable || stages[i].Replicable
	}
	if !anyReplicable && cfg.Policy != adaptive.PolicyStatic {
		return nil, fmt.Errorf("liveadapt: no replicable stage to adapt")
	}
	sub := &liveSub{
		target: target,
		stages: stages,
		cfg:    cfg,
		ests:   make([]*monitor.Estimator, n),
		lastN:  make([]int64, n),
		lastS:  make([]time.Duration, n),
		base:   make([]float64, n),
		loads:  make([]float64, n),
		slow:   make([]float64, n),
		epoch:  time.Now(),
	}
	for i := range sub.ests {
		sub.ests[i] = monitor.NewEstimator(cfg.Policy.Mode())
		sub.base[i] = math.NaN()
	}
	if cfg.AdaptGrain {
		if cfg.Policy == adaptive.PolicyStatic {
			return nil, fmt.Errorf("liveadapt: AdaptGrain needs a non-static policy")
		}
		sub.grain = &grainWalk{rate: math.NaN(), dir: 1}
	}
	core, err := adaptive.New(sub, sub, &wallClock{epoch: sub.epoch}, adaptive.Config{
		Policy:   cfg.Policy,
		Interval: cfg.Interval.Seconds(),
		Cooldown: cfg.cooldown().Seconds(),
	})
	if err != nil {
		return nil, err
	}
	return &Controller{Controller: core, sub: sub}, nil
}

// Grain returns the target's batch size.
func (c *Controller) Grain() int { return c.sub.target.Grain() }

// Replicas returns the current worker-count vector.
func (c *Controller) Replicas() Replicas {
	out := make(Replicas, c.sub.target.NumStages())
	for i := range out {
		out[i] = c.sub.target.Replicas(i)
	}
	return out
}

// rateSample is one (time, cumulative completions) observation.
type rateSample struct {
	t float64
	n int64
}

// liveSub implements adaptive.Sensor and adaptive.Actuator over one
// Target. Its methods are called under the core controller's mutex.
type liveSub struct {
	target Target
	stages []model.StageSpec
	cfg    Config
	epoch  time.Time

	ests  []*monitor.Estimator // per-stage windowed-mean service forecasters
	lastN []int64              // previous Totals count per stage
	lastS []time.Duration      // previous Totals sum per stage
	base  []float64            // best (least-loaded) windowed mean seen per stage
	loads []float64            // reusable Loads buffer
	slow  []float64            // reusable Slowdowns buffer

	samples []rateSample // pruned history of the exit stage's completion count

	grain *grainWalk // granularity actuator (nil unless AdaptGrain)
}

// Sample diffs each stage's meter totals into this window's mean
// service time, feeds the stage's estimator, and tracks the best mean
// ever seen as the stage's unloaded baseline.
func (s *liveSub) Sample(now float64) {
	for i := range s.ests {
		n, sum := s.target.Totals(i)
		if dn := n - s.lastN[i]; dn > 0 {
			d := (sum - s.lastS[i]).Seconds() / float64(dn)
			if d <= 0 {
				d = 1e-9 // sub-resolution service; keep rates finite
			}
			s.ests[i].Observe(d)
			if math.IsNaN(s.base[i]) || d < s.base[i] {
				s.base[i] = d
			}
		}
		s.lastN[i], s.lastS[i] = n, sum
	}
	s.samples = append(s.samples, rateSample{t: now, n: s.completed()})
	// Prune history beyond four trigger windows (5×Interval each).
	keep := 20 * s.cfg.Interval.Seconds()
	cut := 0
	for cut < len(s.samples)-1 && s.samples[cut].t < now-keep {
		cut++
	}
	if cut > 0 {
		s.samples = append(s.samples[:0], s.samples[cut:]...)
	}
	s.grain.step(s, now)
}

// completed is the exit stage's item count: its meter already counts what
// leaves the pipeline, so the exit rate needs no tap on the output stream.
func (s *liveSub) completed() int64 {
	n, _ := s.target.Totals(s.target.NumStages() - 1)
	return n
}

// Loads returns the per-stage service-time estimates (seconds/item)
// the apportionment plans with: last windowed mean, or the forecaster
// battery's near-future estimate for the predictive policy.
func (s *liveSub) Loads(mode adaptive.LoadMode, now float64) []float64 {
	for i, e := range s.ests {
		if mode == adaptive.LoadPredicted {
			s.loads[i] = e.Predicted(1e-9, math.Inf(1))
			if e.Last() != e.Last() { // never observed: Predicted's lo fallback is fiction
				s.loads[i] = math.NaN()
			}
		} else {
			s.loads[i] = e.Last()
		}
	}
	return s.loads
}

// Throughput returns the exit rate over the trailing window, or NaN
// when nothing completed in it (matching the simulated monitor's
// "no signal" semantics). While the run is younger than the window,
// the rate divides by the elapsed time instead — dividing a young
// run's completions by the full window would read as a throughput
// collapse and spuriously fire the degradation trigger at startup.
func (s *liveSub) Throughput(window, now float64) float64 {
	nNow := s.completed()
	start := now - window
	var nStart int64
	if len(s.samples) == 0 || start < s.samples[0].t {
		// The run is younger than the window: everything counts.
		nStart = 0
		if now > 0 && now < window {
			window = now
		}
	} else {
		for i := len(s.samples) - 1; i >= 0; i-- {
			if s.samples[i].t <= start {
				nStart = s.samples[i].n
				break
			}
		}
	}
	if nNow == nStart {
		return math.NaN()
	}
	return float64(nNow-nStart) / window
}

// Slowdowns reports observed service over nominal work per stage.
func (s *liveSub) Slowdowns() []float64 {
	for i, e := range s.ests {
		s.slow[i] = e.Last() / s.stages[i].Work
	}
	return s.slow
}

// Expected rates the current worker vector twice: against the unloaded
// baseline service times (the degradation trigger's reference — what
// this configuration should deliver) and against current service
// times (the hysteresis base — what it delivers now).
func (s *liveSub) Expected(loads []float64) (reference, hysteresis float64) {
	reference, hysteresis = math.NaN(), math.NaN()
	for i := range s.ests {
		reps := float64(s.target.Replicas(i))
		if !math.IsNaN(s.base[i]) && s.base[i] > 0 {
			if r := reps / s.base[i]; math.IsNaN(reference) || r < reference {
				reference = r
			}
		}
		if l := loads[i]; !math.IsNaN(l) && l > 0 {
			if r := reps / l; math.IsNaN(hysteresis) || r < hysteresis {
				hysteresis = r
			}
		}
	}
	return reference, hysteresis
}

// Propose apportions the worker budget over the replicable stages by
// their service-time estimates (conc.Apportion: each stage at least one
// worker, each further worker to the stage with the fewest workers per
// service second, ties to the earlier stage): the split whose predicted
// rate, min(workers/service time), is highest. Non-replicable stages
// keep their current workers and only consume budget. No proposal is
// made until every replicable stage has been observed at least once.
func (s *liveSub) Propose(loads []float64) (*adaptive.Proposal, bool) {
	n := s.target.NumStages()
	cur := make(Replicas, n)
	fixed := 0
	var weights []float64
	for i := 0; i < n; i++ {
		cur[i] = s.target.Replicas(i)
		if !s.stages[i].Replicable {
			fixed += cur[i]
			continue
		}
		if math.IsNaN(loads[i]) || loads[i] <= 0 {
			return nil, false // not enough signal to plan yet
		}
		weights = append(weights, loads[i])
	}
	if len(weights) == 0 {
		return nil, false
	}
	shares := conc.Apportion(nil, weights, s.cfg.MaxWorkers-fixed)
	next := make(Replicas, n)
	copy(next, cur)
	for i, j := 0, 0; i < n; i++ {
		if s.stages[i].Replicable {
			next[i] = shares[j]
			j++
		}
	}

	same := true
	for i := range next {
		if next[i] != cur[i] {
			same = false
			break
		}
	}
	if same {
		return nil, true
	}
	predicted := math.NaN()
	for i := 0; i < n; i++ {
		if l := loads[i]; !math.IsNaN(l) && l > 0 {
			if r := float64(next[i]) / l; math.IsNaN(predicted) || r < predicted {
				predicted = r
			}
		}
	}
	return &adaptive.Proposal{From: cur, To: next, Predicted: predicted, Ref: next}, true
}

// Apply resizes every stage whose worker count changed.
func (s *liveSub) Apply(p *adaptive.Proposal) adaptive.Actuation {
	next := p.Ref.(Replicas)
	changed := false
	for i, w := range next {
		if w == s.target.Replicas(i) {
			continue
		}
		if err := s.target.SetReplicas(i, w); err != nil {
			// Stages and bounds were validated at construction; a
			// failure here is a programming error.
			panic(fmt.Sprintf("liveadapt: SetReplicas(%d, %d): %v", i, w, err))
		}
		changed = true
	}
	return adaptive.Actuation{Changed: changed}
}

// wallClock schedules ticks on real time, reported as seconds since
// the controller's epoch. Stop waits out any in-flight tick.
// Its goroutine shares with a running pipeline StageTotals (atomic loads),
// SetReplicas (an atomic store, then a kick under the run mutex: -race in
// pipeline.TestResizeUnderFlightChain, TestLivePipelineGrowsBottleneck)
// and SetGrain (an atomic store: pipeline.TestGrainResizeConcurrentMidFlight).
type wallClock struct{ epoch time.Time }

func (c *wallClock) Tick(interval float64, fn func(now float64)) (stop func()) {
	t := time.NewTicker(time.Duration(interval * float64(time.Second)))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				fn(now.Sub(c.epoch).Seconds())
			}
		}
	}()
	return func() {
		t.Stop()
		close(done)
		wg.Wait()
	}
}
