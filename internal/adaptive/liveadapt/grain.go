package liveadapt

import (
	"math"
)

// GrainTarget is the optional second actuator surface: targets whose
// stage boundaries move batches expose each independently tunable
// boundary's batch size for the controller to walk. *pipeline.Pipeline
// satisfies it: boundary 0 is its head, and under EnableBatchEdges
// every further boundary is a bridge edge.
type GrainTarget interface {
	// GrainBoundaries returns how many independently tunable
	// boundaries the target has (1 under uniform batching).
	GrainBoundaries() int
	// GrainAt returns boundary b's current batch size.
	GrainAt(b int) int
	// SetGrainAt changes boundary b's batch size while running.
	SetGrainAt(b, n int) error
}

func (t pipelineTarget) GrainBoundaries() int      { return t.p.GrainBoundaries() }
func (t pipelineTarget) GrainAt(b int) int         { return t.p.GrainAt(b) }
func (t pipelineTarget) SetGrainAt(b, n int) error { return t.p.SetGrainAt(b, n) }

// grainWalk is the granularity hill-climber's state, owned by liveSub
// and advanced once per sensor tick (so it runs under the core
// controller's mutex and never races the replica actuator).
//
// The walk is the paper's amortized-overhead argument run empirically:
// double the grain while the observed exit rate keeps clearing the
// hysteresis margin, revert the step that costs throughput, and stop.
// A settled walk re-arms when throughput later degrades below the
// degradation factor of the rate the settled grain delivered — the
// same trigger discipline the replica controller uses, so a workload
// shift re-opens both actuators.
//
// Over several boundaries the walk is a coordinate descent: the same
// double-or-halve probe runs against one boundary at a time, moving to
// the next boundary when a step is reverted, lands within the margin,
// or hits a rail, and settling only once every boundary in a row has
// yielded nothing. With a single boundary the rotation is the identity
// and the walk is exactly the uniform one.
type grainWalk struct {
	target  GrainTarget
	nb      int     // boundary count
	max     int     // grain ceiling
	margin  float64 // accept threshold (derived from HysteresisGain)
	degrade float64 // re-arm threshold (adaptive.DegradationFactor)

	last    float64 // time of the last grain change (cooldown anchor)
	b       int     // boundary currently being probed
	dirs    []int   // per-boundary direction: +1 doubling, -1 halving
	quiet   int     // consecutive boundaries that yielded no accepted step
	prev    int     // grain before the pending step (revert point)
	rate    float64 // best throughput attributed to the current grains
	pending bool    // a step awaits its post-cooldown evaluation
	settled bool    // walk converged; waiting for degradation
}

// step advances the walker one tick: evaluate a pending grain change
// against the pre-change rate, then (unless settled) take the next
// doubling/halving step. Called from Sample with the same clock the
// triggers use.
func (w *grainWalk) step(s *liveSub, now float64) {
	if w == nil || w.target == nil {
		return
	}
	cool := s.cfg.Cooldown.Seconds()
	if now-w.last < cool {
		return
	}
	tput := s.Throughput(cool, now)
	if math.IsNaN(tput) {
		return
	}
	cur := w.target.GrainAt(w.b)

	if w.pending {
		w.pending = false
		switch {
		case tput >= w.rate*w.margin:
			// The step paid for itself: keep it, keep walking this
			// boundary.
			w.rate = tput
			w.quiet = 0
		case tput*w.margin < w.rate:
			// The step cost throughput: revert and move on. The
			// direction flips so a later pass over this boundary
			// probes the other side first.
			w.actuate(w.b, w.prev, now)
			w.dirs[w.b] = -w.dirs[w.b]
			w.advance()
			return
		default:
			// Within the margin either way: keep the grain (it did
			// not hurt) but stop probing this boundary.
			w.rate = tput
			w.advance()
			return
		}
	}

	if w.settled {
		if tput >= w.rate*w.degrade {
			if tput > w.rate {
				w.rate = tput // track the high-water mark while settled
			}
			return
		}
		// Observed rate collapsed below the settled grains' record:
		// re-open the walk from current conditions.
		w.settled = false
		w.quiet = 0
		w.rate = tput
	}

	next := cur
	if w.dirs[w.b] >= 0 {
		next = cur * 2
	} else {
		next = cur / 2
	}
	if next < 1 {
		next = 1
	}
	if next > w.max {
		next = w.max
	}
	if next == cur {
		// Hit a rail: probe this boundary's other direction on the
		// next pass, move on now.
		w.dirs[w.b] = -w.dirs[w.b]
		w.advance()
		return
	}
	w.prev = cur
	if math.IsNaN(w.rate) {
		w.rate = tput
	}
	w.actuate(w.b, next, now)
	w.pending = true
}

// advance rotates to the next boundary, settling once a full rotation
// has yielded no accepted step. With one boundary this settles
// immediately — the uniform walk's behaviour.
func (w *grainWalk) advance() {
	w.quiet++
	if w.quiet >= w.nb {
		w.settled = true
		return
	}
	w.b = (w.b + 1) % w.nb
}

func (w *grainWalk) actuate(b, n int, now float64) {
	if err := w.target.SetGrainAt(b, n); err != nil {
		// The target's grain surface was probed at construction; a
		// failure here is a programming error.
		panic("liveadapt: SetGrainAt: " + err.Error())
	}
	w.last = now
}
