// Live-execution support: the bundled workloads' stage functions for
// the goroutine runtime, and the harness behind experiment F11 and
// adaptpipe -live.
//
// A grid pipeline's stage executes on a backing resource (a cluster
// node, a remote service); the live stage function models that as
// occupancy — the worker goroutine is held for the stage's service
// time, which inflates by 1/(1-load) when background load lands on the
// resource, exactly the CPU-availability semantics of the simulator's
// load traces (grid.Node.Load). Replicating a stage adds concurrent
// occupancy — the live counterpart of farming the stage across nodes —
// so throughput recovers when the controller folds reserve workers in.
//
// Injected load comes in two forms: SpikeLoad places background load
// on the victim stage's backing resource (deterministic, the F11
// scenario), and BgLoad additionally starts real CPU hogs in-process
// (meaningful contention colour on multi-core hosts).
package workload

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/adaptive/liveadapt"
	"gridpipe/internal/pipeline"
)

// spinSink absorbs the spin kernels' results so the work cannot be
// optimised away.
var spinSink atomic.Uint64

// spinChunk is the spin quantum between the hogs' scheduling points
// (~tens of microseconds of xorshift).
const spinChunk = 1 << 14

// spin burns the given number of xorshift iterations of CPU.
func spin(iters int64) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := int64(0); i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

// Resource models one stage's backing resource for live execution: a
// service whose response time inflates with the background load on it.
// SetLoad is safe to call while stage functions occupy the resource —
// it is how a live run injects the simulator's load-spike scenario.
type Resource struct {
	loadBits atomic.Uint64 // float64 bits of the current load in [0, 1)
}

// SetLoad sets the resource's background load (clamped to [0, 0.95]).
func (r *Resource) SetLoad(x float64) {
	r.loadBits.Store(math.Float64bits(math.Min(math.Max(x, 0), 0.95)))
}

// Load returns the current background load.
func (r *Resource) Load() float64 {
	return math.Float64frombits(r.loadBits.Load())
}

// Occupy holds the caller for base/(1-load): the stage's service time
// on this resource under its current background load.
func (r *Resource) Occupy(base time.Duration) {
	time.Sleep(time.Duration(float64(base) / (1 - r.Load())))
}

// Fn returns a live stage function occupying the resource for
// baseSeconds (unloaded) per item, passing its input through.
func (r *Resource) Fn(baseSeconds float64) func(ctx context.Context, v any) (any, error) {
	d := time.Duration(baseSeconds * float64(time.Second))
	return func(ctx context.Context, v any) (any, error) {
		r.Occupy(d)
		return v, nil
	}
}

// Auto is the explicit "pick the default" sentinel for
// LiveOptions.Victim (the heaviest stage) and
// LiveOptions.InjectAtItem (one third of the stream). The sentinel is
// negative so the zero values stay meaningful: stage 0 is a real
// victim and item 0 a real injection point — before the sentinel,
// zero meant "unset" and neither could be targeted.
const Auto = -1

// LiveOptions tunes RunLive.
type LiveOptions struct {
	// Policy drives the live controller (PolicyStatic = inert
	// baseline).
	Policy adaptive.Policy
	// Items is the stream length (default 2400).
	Items int
	// SpikeLoad is the background load injected onto the victim
	// stage's backing resource after InjectAtItem completions
	// (0 or negative = no spike; 0.6 inflates its service time 2.5×).
	SpikeLoad float64
	// Victim is the stage whose resource the spike hits: a stage index
	// (0 targets the first stage) or Auto for the heaviest stage.
	// Callers that inject should set it explicitly — the zero value
	// means stage 0 (it is only consulted when a spike or background
	// load is configured).
	Victim int
	// InjectAtItem is the completion count at which injection happens:
	// an item index (0 injects before the first completion) or Auto
	// for Items/3. Like Victim, the zero value is a real position.
	InjectAtItem int
	// BgLoad additionally starts this many in-process CPU hogs at the
	// injection point (default 0; real scheduler contention on top of
	// the resource spike).
	BgLoad int
	// MaxWorkers is the controller's total worker budget (default 16).
	// The initial deployment apportions half of it, so the other half
	// is the reserve capacity adaptation can fold in.
	MaxWorkers int
	// Interval is the controller's decision period (default 100 ms).
	Interval time.Duration
	// Scale is wall-seconds of stage occupancy per reference-second of
	// modelled work (default 0.025: the genome align stage's 0.35
	// ref-s becomes 8.75 ms).
	Scale float64
	// Batch makes batches of this many items the unit crossing stage
	// boundaries (0 = per-item transfer; Auto = start at 1 and let the
	// controller's granularity actuator walk it — requires a
	// non-static policy).
	Batch int
}

// LiveEvent is one resize the live controller performed.
type LiveEvent struct {
	Time         float64
	From, To     string
	PredictedOld float64
	PredictedNew float64
}

// LiveOutcome reports one live run.
type LiveOutcome struct {
	Items      int
	Elapsed    float64 // seconds
	Throughput float64 // items/s overall
	// ThroughputBefore/Under split the rate at the injection point
	// (both zero when nothing was injected).
	ThroughputBefore float64
	ThroughputUnder  float64
	Events           []LiveEvent
	Replicas         []int
	// Victim is the stage the spike hit (-1 when no spike).
	Victim int
	// Grain is the final boundary batch size (1 when unbatched).
	Grain int
}

// initialReplicas apportions budget workers over the spec's stages
// proportionally to their work (largest remainder, each stage at least
// one) — the deployment-time allocation a scheduler without run-time
// information would pick.
func initialReplicas(app App, budget int) []int {
	n := app.Spec.NumStages()
	reps := make([]int, n)
	total := app.Spec.TotalWork()
	if budget < n {
		budget = n
	}
	type frac struct {
		i int
		f float64
	}
	var rem []frac
	assigned := 0
	for i := 0; i < n; i++ {
		share := float64(budget) * app.Spec.Stages[i].Work / total
		w := int(share)
		if w < 1 {
			w = 1
		}
		reps[i] = w
		assigned += w
		rem = append(rem, frac{i: i, f: share - float64(w)})
	}
	sort.SliceStable(rem, func(a, b int) bool { return rem[a].f > rem[b].f })
	for j := 0; assigned < budget; j = (j + 1) % len(rem) {
		reps[rem[j].i]++
		assigned++
	}
	return reps
}

// heaviestStage returns the index of the stage with the largest work.
func heaviestStage(app App) int {
	best, bestW := 0, 0.0
	for i, st := range app.Spec.Stages {
		if st.Work > bestW {
			best, bestW = i, st.Work
		}
	}
	return best
}

// RunLive executes the app's pipeline live on this machine under the
// given adaptation policy: the scenario behind experiment F11 and
// adaptpipe -live. Each stage occupies its own backing Resource for
// its modelled work; at the injection point, SpikeLoad lands on the
// victim stage's resource (and BgLoad CPU hogs start, if requested).
// The outcome splits throughput at the injection point so the recovery
// the controller achieved is directly readable.
func RunLive(app App, opts LiveOptions) (LiveOutcome, error) {
	if opts.Items <= 0 {
		opts.Items = 2400
	}
	if opts.MaxWorkers <= 0 {
		opts.MaxWorkers = 16
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.Scale <= 0 {
		opts.Scale = 0.025
	}
	if opts.SpikeLoad < 0 {
		opts.SpikeLoad = 0
	}
	if opts.Victim < 0 {
		opts.Victim = heaviestStage(app)
	} else if opts.Victim >= app.Spec.NumStages() {
		return LiveOutcome{}, fmt.Errorf("workload: victim stage %d out of range (app has %d stages)", opts.Victim, app.Spec.NumStages())
	}
	if opts.InjectAtItem < 0 {
		opts.InjectAtItem = opts.Items / 3
	} else if opts.InjectAtItem >= opts.Items {
		return LiveOutcome{}, fmt.Errorf("workload: injection point %d beyond the %d-item stream", opts.InjectAtItem, opts.Items)
	}
	inject := opts.SpikeLoad > 0 || opts.BgLoad > 0

	reps := initialReplicas(app, opts.MaxWorkers/2)
	resources := make([]*Resource, app.Spec.NumStages())
	stages := make([]pipeline.Stage, app.Spec.NumStages())
	info := make([]liveadapt.StageInfo, len(stages))
	for i, st := range app.Spec.Stages {
		resources[i] = &Resource{}
		stages[i] = pipeline.Stage{
			Name:     st.Name,
			Fn:       resources[i].Fn(st.Work * opts.Scale),
			Replicas: reps[i],
			Buffer:   8,
		}
		info[i] = liveadapt.StageInfo{Name: st.Name, Weight: st.Work, Replicable: st.Replicable}
	}
	pl, err := pipeline.New(stages...)
	if err != nil {
		return LiveOutcome{}, err
	}
	cfg := liveadapt.Config{
		Policy:     opts.Policy,
		Interval:   opts.Interval,
		MaxWorkers: opts.MaxWorkers,
	}
	if opts.Batch != 0 {
		grain := opts.Batch
		if grain == Auto {
			if opts.Policy == adaptive.PolicyStatic {
				return LiveOutcome{}, fmt.Errorf("workload: Batch=Auto needs a non-static policy")
			}
			grain = 1
			cfg.AdaptGrain = true
		}
		if err := pl.EnableBatch(grain, 0); err != nil {
			return LiveOutcome{}, err
		}
	}
	ctrl, err := liveadapt.ForPipeline(pl, info, cfg)
	if err != nil {
		return LiveOutcome{}, err
	}

	in := make(chan any, 64)
	go func() {
		defer close(in)
		for i := 0; i < opts.Items; i++ {
			in <- i
		}
	}()
	out, errs := pl.Run(context.Background(), in)
	ctrl.Start()
	t0 := time.Now()
	var (
		seen     int
		injected bool
		bgStop   func()
		tBefore  float64
	)
	doInject := func() {
		injected = true
		tBefore = time.Since(t0).Seconds()
		if opts.SpikeLoad > 0 {
			resources[opts.Victim].SetLoad(opts.SpikeLoad)
		}
		if opts.BgLoad > 0 {
			bgStop = BackgroundLoad(opts.BgLoad)
		}
	}
	if inject && opts.InjectAtItem == 0 {
		// Item 0: the spike is present from the very first completion.
		doInject()
	}
	for v := range out {
		if v.(int) != seen {
			ctrl.Stop()
			return LiveOutcome{}, fmt.Errorf("workload: live run out of order (%v at %d)", v, seen)
		}
		seen++
		if inject && !injected && seen == opts.InjectAtItem {
			doInject()
		}
	}
	ctrl.Stop()
	if bgStop != nil {
		bgStop()
	}
	if err := <-errs; err != nil {
		return LiveOutcome{}, err
	}
	elapsed := time.Since(t0).Seconds()

	outc := LiveOutcome{
		Items:      seen,
		Elapsed:    elapsed,
		Throughput: float64(seen) / elapsed,
		Replicas:   ctrl.Replicas(),
		Victim:     -1,
		Grain:      ctrl.Grain(),
	}
	if opts.SpikeLoad > 0 {
		outc.Victim = opts.Victim
	}
	if injected && elapsed > tBefore {
		if tBefore > 0 {
			outc.ThroughputBefore = float64(opts.InjectAtItem) / tBefore
		}
		outc.ThroughputUnder = float64(seen-opts.InjectAtItem) / (elapsed - tBefore)
	}
	for _, ev := range ctrl.Stats().Events {
		outc.Events = append(outc.Events, LiveEvent{
			Time:         ev.Time,
			From:         ev.From.String(),
			To:           ev.To.String(),
			PredictedOld: ev.PredictedOld,
			PredictedNew: ev.PredictedNew,
		})
	}
	return outc, nil
}

// BackgroundLoad starts n goroutines of injected CPU contention. The
// hogs run in pairs that ping-pong a token over a channel, spinning
// between handoffs: a stand-in for a co-tenant workload rather than a
// bare busy-loop, because the Go scheduler services channel-woken
// goroutines from the local run queue and largely starves goroutines
// that never block — a bare spinner would barely contend. The returned
// stop function halts the hogs and waits for their exit.
func BackgroundLoad(n int) (stop func()) {
	if n%2 == 1 {
		n++ // pairs
	}
	quit := make(chan struct{})
	done := make(chan struct{}, n)
	for i := 0; i < n; i += 2 {
		a, b := make(chan struct{}, 1), make(chan struct{}, 1)
		hog := func(in, out chan struct{}) {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-quit:
					return
				case <-in:
					spin(spinChunk)
					out <- struct{}{}
				}
			}
		}
		go hog(a, b)
		go hog(b, a)
		a <- struct{}{}
	}
	return func() {
		close(quit)
		for i := 0; i < n; i++ {
			<-done
		}
	}
}
