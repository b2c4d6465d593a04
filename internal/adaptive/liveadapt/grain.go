package liveadapt

import (
	"math"

	"gridpipe/internal/adaptive"
)

const (
	// maxGrain bounds the walked batch size.
	maxGrain = 256
	// grainMargin is the walk's accept threshold. Accepting a grain
	// step is cheaper than a remapping, so the walk demands a quarter
	// of the resize margin (adaptive.DefaultHysteresisGain).
	grainMargin = 1 + (adaptive.DefaultHysteresisGain-1)/4
)

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
	cool := s.cfg.cooldown().Seconds()
	if now-w.last < cool {
		return
	}
	tput := s.Throughput(cool, now)
	if math.IsNaN(tput) {
		return
	}
	cur := s.target.Grain()

	if w.pending {
		w.pending = false
		switch {
		case tput >= w.rate*grainMargin:
			// The step paid for itself: keep it, keep walking.
			w.rate = tput
		case tput*grainMargin < w.rate:
			// The step cost throughput: revert and settle. The
			// direction flips so a re-armed walk probes the other
			// side first.
			w.actuate(s.target, w.prev, now)
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
		if tput >= w.rate*adaptive.DegradationFactor {
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
	if next > maxGrain {
		next = maxGrain
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
	w.actuate(s.target, next, now)
	w.pending = true
}

func (w *grainWalk) actuate(t Target, n int, now float64) {
	if err := t.SetGrain(n); err != nil {
		// The walk never asks for a grain below 1, the one a pipeline
		// refuses; a failure here is a programming error.
		panic("liveadapt: SetGrain: " + err.Error())
	}
	w.last = now
}
