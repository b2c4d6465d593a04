// Package liveadapt is the live substrate of the adaptive controller
// (internal/adaptive): the same monitor → forecast → decide → actuate
// loop that drives the simulator, wired to the goroutine runtime so a
// running pipeline rebalances its per-stage worker pools under real
// CPU contention.
//
//   - Sensor: a wall-clock ticker diffs each stage's conc.Meter totals
//     into windowed mean service times, feeds them through the same
//     monitor.Estimator forecaster batteries the simulated node
//     sensors use, and reads the exit rate off the last stage's count;
//   - Actuator: a worker-budget apportioner — replicable stages
//     receive workers proportional to their (forecast) service times,
//     bounded by MaxWorkers — actuating via pipeline.SetReplicas;
//   - Clock: a time.Ticker.
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
	"sort"
	"strings"
	"sync"
	"time"

	"gridpipe/internal/adaptive"
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
}

// pipelineTarget adapts *pipeline.Pipeline.
type pipelineTarget struct{ p *pipeline.Pipeline }

func (t pipelineTarget) NumStages() int                      { return t.p.NumStages() }
func (t pipelineTarget) Replicas(i int) int                  { return t.p.Replicas(i) }
func (t pipelineTarget) SetReplicas(i, n int) error          { return t.p.SetReplicas(i, n) }
func (t pipelineTarget) Totals(i int) (int64, time.Duration) { return t.p.StageTotals(i) }

// StageInfo describes one stage to the live controller.
type StageInfo struct {
	// Name labels the stage in the event log.
	Name string
	// Weight is the stage's nominal per-item demand in any consistent
	// unit (the facade's reference-seconds); only ratios matter. It
	// normalises observed service times for the imbalance trigger
	// (default 1).
	Weight float64
	// Replicable marks the stage resizable; non-replicable stages keep
	// their current worker count and only consume budget.
	Replicable bool
}

// Config tunes a live controller.
type Config struct {
	Policy adaptive.Policy
	// Interval is the wall-clock sensing/decision period
	// (default 250 ms).
	Interval time.Duration
	// DegradationFactor, ImbalanceThreshold, and HysteresisGain tune
	// the shared trigger machinery; see adaptive.Config.
	DegradationFactor  float64
	ImbalanceThreshold float64
	HysteresisGain     float64
	// Cooldown is the minimum wall time between two resizes
	// (default 2×Interval). Live resizes are cheap but worker-pool
	// growth ramps over items, so back-to-back decisions act on stale
	// evidence without this guard.
	Cooldown time.Duration
	// ThroughputWindow is the trailing window for the observed exit
	// rate (default 5×Interval).
	ThroughputWindow time.Duration
	// MaxWorkers is the total worker budget across all stages
	// (default 2×GOMAXPROCS). It is the live counterpart of the
	// simulator's elastic reserves: capacity the controller may fold
	// in when the observed throughput degrades.
	MaxWorkers int
	// BudgetCap, when non-nil, overrides MaxWorkers at every decision:
	// it is consulted per proposal, so a shared cluster budget
	// (conc.WorkerBudget) re-divided among concurrent runs takes
	// effect at the controller's next tick.
	BudgetCap func() int
	// AdaptGrain enables the granularity actuator: the controller
	// walks the target's boundary batch size (the pipeline's grain) in
	// doubling and halving steps paced by Cooldown, keeping a step
	// whose observed throughput clears the hysteresis margin and
	// reverting one that costs it (see grainWalk). Requires a target
	// that exposes a grain, as a pipeline does. PolicyStatic never
	// ticks, so grain stays fixed under it.
	AdaptGrain bool
	// MaxGrain bounds the walked batch size (default 256).
	MaxGrain int
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxGrain <= 0 {
		c.MaxGrain = 256
	}
}

// Replicas is a worker-count vector; it is the live substrate's
// adaptive.Placement.
type Replicas []int

// String renders the vector like "[1 4 2 1]".
func (r Replicas) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, n := range r {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteByte(']')
	return b.String()
}

// Controller drives live adaptation of one pipeline.
type Controller struct {
	*adaptive.Controller
	sub *liveSub
}

// ForPipeline builds a live controller over a pipeline. info describes
// the stages (nil = every stage replicable at weight 1) and must match
// the pipeline's stage count. PolicyOracle is rejected: the live
// substrate has no ground truth to consult.
func ForPipeline(p *pipeline.Pipeline, info []StageInfo, cfg Config) (*Controller, error) {
	return newController(pipelineTarget{p: p}, info, cfg)
}

func newController(target Target, info []StageInfo, cfg Config) (*Controller, error) {
	if cfg.Policy == adaptive.PolicyOracle {
		return nil, fmt.Errorf("liveadapt: PolicyOracle needs ground-truth loads; the live substrate has none")
	}
	cfg.fillDefaults()
	n := target.NumStages()
	if info == nil {
		info = make([]StageInfo, n)
		for i := range info {
			info[i] = StageInfo{Name: fmt.Sprintf("stage%d", i), Weight: 1, Replicable: true}
		}
	}
	if len(info) != n {
		return nil, fmt.Errorf("liveadapt: %d stage infos for %d stages", len(info), n)
	}
	anyReplicable := false
	for i := range info {
		if info[i].Weight <= 0 {
			info[i].Weight = 1
		}
		anyReplicable = anyReplicable || info[i].Replicable
	}
	if !anyReplicable && cfg.Policy != adaptive.PolicyStatic {
		return nil, fmt.Errorf("liveadapt: no replicable stage to adapt")
	}
	sub := &liveSub{
		target: target,
		info:   info,
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
		sub.ests[i] = monitor.NewEstimator(nil)
		sub.base[i] = math.NaN()
	}
	if cfg.AdaptGrain {
		gt, ok := target.(GrainTarget)
		if !ok {
			return nil, fmt.Errorf("liveadapt: AdaptGrain target exposes no grain surface")
		}
		// Probe actuability now: every pipeline accepts its own
		// current grain, but GrainTarget is an interface and another
		// implementation may refuse — failing at construction beats
		// panicking mid-run.
		if err := gt.SetGrain(gt.Grain()); err != nil {
			return nil, fmt.Errorf("liveadapt: AdaptGrain: %w", err)
		}
		hg := cfg.HysteresisGain
		if hg <= 1 {
			hg = 1.15 // the shared trigger default (adaptive.Config)
		}
		df := cfg.DegradationFactor
		if df <= 0 || df >= 1 {
			df = 0.7
		}
		sub.grain = &grainWalk{
			target: gt,
			nb:     1,
			max:    cfg.MaxGrain,
			// Accepting a grain step is cheaper than a remapping, so
			// the walk demands a quarter of the resize margin.
			margin:  1 + (hg-1)/4,
			degrade: df,
			rate:    math.NaN(),
		}
		// A per-edge target turns the walk into a coordinate descent
		// over its boundaries; a single-boundary (uniform) target
		// degenerates to the scalar walk.
		if et, ok := target.(EdgeGrainTarget); ok && et.GrainBoundaries() > 1 {
			sub.grain.et = et
			sub.grain.nb = et.GrainBoundaries()
		}
		sub.grain.dirs = make([]int, sub.grain.nb)
		for b := range sub.grain.dirs {
			sub.grain.dirs[b] = 1
		}
	}
	core, err := adaptive.New(sub, sub, &wallClock{epoch: sub.epoch}, adaptive.Config{
		Policy:             cfg.Policy,
		Interval:           cfg.Interval.Seconds(),
		DegradationFactor:  cfg.DegradationFactor,
		ImbalanceThreshold: cfg.ImbalanceThreshold,
		HysteresisGain:     cfg.HysteresisGain,
		Cooldown:           cfg.Cooldown.Seconds(),
		ThroughputWindow:   cfg.ThroughputWindow.Seconds(),
	})
	if err != nil {
		return nil, err
	}
	return &Controller{Controller: core, sub: sub}, nil
}

// Grain returns the target's current boundary batch size, or 1 when
// the target has no grain surface.
func (c *Controller) Grain() int {
	if gt, ok := c.sub.target.(GrainTarget); ok {
		return gt.Grain()
	}
	return 1
}

// Grains returns the per-boundary batch sizes the controller is
// walking: one entry per tunable boundary for a per-edge target, a
// single entry for a uniform one.
func (c *Controller) Grains() []int {
	if et, ok := c.sub.target.(EdgeGrainTarget); ok {
		out := make([]int, et.GrainBoundaries())
		for b := range out {
			out[b] = et.GrainAt(b)
		}
		return out
	}
	return []int{c.Grain()}
}

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
	info   []StageInfo
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
// service time, feeds the forecaster battery, and tracks the best mean
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
	// Prune history beyond any window a trigger could ask about.
	keep := 4 * math.Max(s.cfg.ThroughputWindow.Seconds(), 5*s.cfg.Interval.Seconds())
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

// Slowdowns reports observed service over nominal weight per stage.
func (s *liveSub) Slowdowns() []float64 {
	for i, e := range s.ests {
		s.slow[i] = e.Last() / s.info[i].Weight
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

// Propose apportions the worker budget over the replicable stages
// proportionally to their service-time estimates (largest-remainder,
// each stage at least one worker, ties to the earlier stage).
// Non-replicable stages keep their current workers and only consume
// budget. No proposal is made until every replicable stage has been
// observed at least once.
func (s *liveSub) Propose(loads []float64) (*adaptive.Proposal, bool) {
	n := s.target.NumStages()
	cur := make(Replicas, n)
	fixed, weightSum := 0, 0.0
	replicable := 0
	for i := 0; i < n; i++ {
		cur[i] = s.target.Replicas(i)
		if !s.info[i].Replicable {
			fixed += cur[i]
			continue
		}
		replicable++
		if math.IsNaN(loads[i]) || loads[i] <= 0 {
			return nil, false // not enough signal to plan yet
		}
		weightSum += loads[i]
	}
	if replicable == 0 {
		return nil, false
	}
	budget := s.cfg.MaxWorkers
	if s.cfg.BudgetCap != nil {
		if b := s.cfg.BudgetCap(); b > 0 {
			budget = b
		}
	}
	avail := budget - fixed
	if avail < replicable {
		avail = replicable // budget floor: one worker per replicable stage
	}

	// Apportion avail ∝ service time: one worker per replicable stage
	// up front, the rest by largest remainder. Allocating the floor
	// first (rather than flooring each proportional share at 1) keeps
	// the total exactly at avail — share-flooring could overshoot the
	// budget when many light stages round up.
	next := make(Replicas, n)
	copy(next, cur)
	extra := avail - replicable
	type frac struct {
		i int
		f float64
	}
	var rem []frac
	assigned := 0
	for i := 0; i < n; i++ {
		if !s.info[i].Replicable {
			continue
		}
		share := float64(extra) * loads[i] / weightSum
		w := int(share)
		next[i] = 1 + w
		assigned += w
		rem = append(rem, frac{i: i, f: share - float64(w)})
	}
	// Hand leftovers to the largest remainders, earlier stage on ties.
	sort.SliceStable(rem, func(a, b int) bool { return rem[a].f > rem[b].f })
	for j := 0; assigned < extra; j = (j + 1) % len(rem) {
		next[rem[j].i]++
		assigned++
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
