package liveadapt

import (
	"math"
)

// GrainTarget is the optional second actuator surface: a target whose
// stage boundaries move batches exposes its one batch size, the grain,
// for the controller to walk. *pipeline.Pipeline satisfies it.
type GrainTarget interface {
	// Grain returns the current batch size.
	Grain() int
	// SetGrain changes the batch size while running.
	SetGrain(n int) error
}

func (t pipelineTarget) Grain() int           { return t.p.Grain() }
func (t pipelineTarget) SetGrain(n int) error { return t.p.SetGrain(n) }

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
type grainWalk struct {
	target  GrainTarget
	max     int     // grain ceiling
	margin  float64 // accept threshold (derived from HysteresisGain)
	degrade float64 // re-arm threshold (adaptive.DegradationFactor)

	last    float64 // time of the last grain change (cooldown anchor)
	dir     int     // +1 doubling, -1 halving
	prev    int     // grain before the pending step (revert point)
	rate    float64 // best throughput attributed to the current grain
	pending bool    // a step awaits its post-cooldown evaluation
	settled bool    // walk converged; waiting for degradation
}

// step advances the walker one tick: evaluate a pending grain change
// against the pre-change rate, then (unless settled) take the next
// doubling/halving step. Called from Sample with the same clock the
// triggers use.
func (w *grainWalk) step(s *liveSub, now float64) {
	if w == nil {
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
	cur := w.target.Grain()

	if w.pending {
		w.pending = false
		switch {
		case tput >= w.rate*w.margin:
			// The step paid for itself: keep it, keep walking.
			w.rate = tput
		case tput*w.margin < w.rate:
			// The step cost throughput: revert and settle. The
			// direction flips so a re-armed walk probes the other
			// side first.
			w.actuate(w.prev, now)
			w.dir = -w.dir
			w.settled = true
			return
		default:
			// Within the margin either way: keep the grain (it did
			// not hurt) but stop probing.
			w.rate = tput
			w.settled = true
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
		// Observed rate collapsed below the settled grain's record:
		// re-open the walk from current conditions.
		w.settled = false
		w.rate = tput
	}

	next := cur
	if w.dir >= 0 {
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
		// Hit a rail: settle, and probe the other direction once
		// re-armed.
		w.dir = -w.dir
		w.settled = true
		return
	}
	w.prev = cur
	if math.IsNaN(w.rate) {
		w.rate = tput
	}
	w.actuate(next, now)
	w.pending = true
}

func (w *grainWalk) actuate(n int, now float64) {
	if err := w.target.SetGrain(n); err != nil {
		// The target's grain surface was probed at construction; a
		// failure here is a programming error.
		panic("liveadapt: SetGrain: " + err.Error())
	}
	w.last = now
}
