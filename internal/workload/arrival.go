// Open-loop arrival processes: the generators behind the traffic
// engine's job streams. An ArrivalProcess emits inter-arrival gaps —
// offered load that does not wait for the system, the open-loop
// discipline every serious load generator uses (closed loops hide
// saturation because a slow system slows its own clients down).
//
// Every process is a pure function of its seed: constructors derive
// private rng sub-streams (rng.Derive) for each random role (gaps,
// state sojourns, thinning, mix selection), so a same-seed stream
// replays bit-identically, and Next is allocation-free per event.

package workload

import (
	"fmt"
	"math"

	"gridpipe/internal/rng"
)

// Derive labels for the traffic engine's rng sub-streams: one label
// per random role so streams never interfere.
const (
	gapStream     = 0 // inter-arrival gap draws
	sojournStream = 1 // bursty on/off state durations
	thinStream    = 2 // non-homogeneous thinning acceptance
	mixStream     = 3 // GenerateTrace's job-mix selection
)

// ArrivalProcess generates the inter-arrival gaps of an open-loop
// traffic stream. Processes are sequential generators: each Next call
// advances the stream by the returned gap (rate-modulated processes
// track the stream time internally). Implementations are deterministic
// in their construction seed and allocation-free per Next call; Reset
// rewinds to the initial state so the same stream replays
// bit-identically.
type ArrivalProcess interface {
	// Name identifies the process family ("poisson", "uniform",
	// "bursty", "diurnal", "pareto").
	Name() string
	// Rate is the configured long-run mean arrival rate in events per
	// second of stream time.
	Rate() float64
	// Next returns the gap in seconds to the next arrival.
	Next() float64
	// Reset rewinds the process to its initial seeded state.
	Reset()
}

// Poisson is the memoryless arrival process: exponential inter-arrival
// gaps at a constant rate — the classic open-loop baseline.
type Poisson struct {
	rate float64
	seed uint64
	r    rng.Rand
}

// NewPoisson returns a Poisson process at the given mean rate. It
// panics on a non-positive rate.
func NewPoisson(rate float64, seed uint64) *Poisson {
	if rate <= 0 {
		panic("workload: NewPoisson with non-positive rate")
	}
	p := &Poisson{rate: rate, seed: seed}
	p.Reset()
	return p
}

// Name implements ArrivalProcess.
func (p *Poisson) Name() string { return "poisson" }

// Rate implements ArrivalProcess.
func (p *Poisson) Rate() float64 { return p.rate }

// Next implements ArrivalProcess.
func (p *Poisson) Next() float64 { return p.r.Exp(p.rate) }

// Reset implements ArrivalProcess.
func (p *Poisson) Reset() { p.r = *rng.New(p.seed).Derive(gapStream) }

// Uniform draws gaps uniformly in [m·(1-spread), m·(1+spread)] around
// the mean gap m = 1/rate: low-variance, near-paced traffic (a
// rate-limited client fleet).
type Uniform struct {
	rate   float64
	spread float64
	seed   uint64
	r      rng.Rand
}

// NewUniform returns a uniform-gap process at the given mean rate with
// the given relative spread in [0, 1). It panics on a non-positive
// rate or a spread outside [0, 1).
func NewUniform(rate, spread float64, seed uint64) *Uniform {
	if rate <= 0 {
		panic("workload: NewUniform with non-positive rate")
	}
	if spread < 0 || spread >= 1 {
		panic("workload: NewUniform spread outside [0, 1)")
	}
	u := &Uniform{rate: rate, spread: spread, seed: seed}
	u.Reset()
	return u
}

// Name implements ArrivalProcess.
func (u *Uniform) Name() string { return "uniform" }

// Rate implements ArrivalProcess.
func (u *Uniform) Rate() float64 { return u.rate }

// Next implements ArrivalProcess.
func (u *Uniform) Next() float64 {
	m := 1 / u.rate
	return u.r.Range(m*(1-u.spread), m*(1+u.spread))
}

// Reset implements ArrivalProcess.
func (u *Uniform) Reset() { u.r = *rng.New(u.seed).Derive(gapStream) }

// Bursty is a two-state Markov-modulated Poisson process: exponential
// sojourns in an off state (rate Base) and an on state (rate Burst) —
// a quiet stream punctuated by flash crowds.
type Bursty struct {
	base, burst     float64
	offMean, onMean float64
	seed            uint64
	gaps, sojourns  rng.Rand
	t, stateEnd     float64
	on              bool
}

// NewBursty returns an on/off modulated process: rate base during off
// sojourns (mean offMean seconds) and rate burst during on sojourns
// (mean onMean seconds). It panics on non-positive burst rate, sojourn
// means, or a negative base rate (a zero base — fully silent between
// bursts — is valid).
func NewBursty(base, burst, offMean, onMean float64, seed uint64) *Bursty {
	if base < 0 || burst <= 0 || offMean <= 0 || onMean <= 0 {
		panic("workload: NewBursty with invalid parameter")
	}
	b := &Bursty{base: base, burst: burst, offMean: offMean, onMean: onMean, seed: seed}
	b.Reset()
	return b
}

// Name implements ArrivalProcess.
func (b *Bursty) Name() string { return "bursty" }

// Rate implements ArrivalProcess: the time-weighted mean rate over the
// on/off cycle.
func (b *Bursty) Rate() float64 {
	return (b.base*b.offMean + b.burst*b.onMean) / (b.offMean + b.onMean)
}

// Next implements ArrivalProcess. Within a sojourn the process is
// Poisson at the state's rate; a draw that crosses the sojourn
// boundary is discarded and redrawn at the next state's rate (the
// exponential's memorylessness makes the truncation exact).
func (b *Bursty) Next() float64 {
	start := b.t
	for {
		rate := b.base
		if b.on {
			rate = b.burst
		}
		gap := math.Inf(1)
		if rate > 0 {
			gap = b.gaps.Exp(rate)
		}
		if b.t+gap <= b.stateEnd {
			b.t += gap
			return b.t - start
		}
		b.t = b.stateEnd
		b.on = !b.on
		mean := b.offMean
		if b.on {
			mean = b.onMean
		}
		b.stateEnd = b.t + b.sojourns.Exp(1/mean)
	}
}

// Reset implements ArrivalProcess.
func (b *Bursty) Reset() {
	root := rng.New(b.seed)
	b.gaps = *root.Derive(gapStream)
	b.sojourns = *root.Derive(sojournStream)
	b.t = 0
	b.on = false
	b.stateEnd = b.sojourns.Exp(1 / b.offMean)
}

// Diurnal is a sinusoidally rate-modulated Poisson process — the
// day/night cycle of user-facing traffic: rate(t) = Base +
// Amp·sin(2πt/Period + Phase), realised by thinning against the peak
// rate. Spans where the modulated rate dips to zero simply emit no
// arrivals.
type Diurnal struct {
	base, amp     float64
	period, phase float64
	peak          float64
	seed          uint64
	gaps, thin    rng.Rand
	t             float64
}

// NewDiurnal returns a sinusoid-modulated process with long-run mean
// rate base. It panics on non-positive base or period, a negative amp,
// or amp > base (the modulated rate would go negative for a nonzero
// fraction of the cycle — clamped tails would bias the mean).
func NewDiurnal(base, amp, period, phase float64, seed uint64) *Diurnal {
	if base <= 0 || period <= 0 || amp < 0 || amp > base {
		panic("workload: NewDiurnal with invalid parameter")
	}
	d := &Diurnal{base: base, amp: amp, period: period, phase: phase, peak: base + amp, seed: seed}
	d.Reset()
	return d
}

// Name implements ArrivalProcess.
func (d *Diurnal) Name() string { return "diurnal" }

// Rate implements ArrivalProcess: the sinusoid integrates to zero over
// a period, so the long-run mean rate is the base.
func (d *Diurnal) Rate() float64 { return d.base }

// Next implements ArrivalProcess (Lewis-Shedler thinning: candidate
// arrivals at the peak rate, accepted with probability rate(t)/peak).
func (d *Diurnal) Next() float64 {
	start := d.t
	for {
		d.t += d.gaps.Exp(d.peak)
		r := d.base + d.amp*math.Sin(2*math.Pi*d.t/d.period+d.phase)
		if r < 0 {
			r = 0
		}
		if d.thin.Float64()*d.peak < r {
			return d.t - start
		}
	}
}

// Reset implements ArrivalProcess.
func (d *Diurnal) Reset() {
	root := rng.New(d.seed)
	d.gaps = *root.Derive(gapStream)
	d.thin = *root.Derive(thinStream)
	d.t = 0
}

// ParetoArrivals draws heavy-tailed inter-arrival gaps from a
// Pareto(shape, scale) with the scale matched so the mean gap is
// 1/rate: long silences punctuated by dense arrival clumps, the
// self-similar traffic shape measured on real networks.
type ParetoArrivals struct {
	rate  float64
	shape float64
	scale float64
	seed  uint64
	r     rng.Rand
}

// NewPareto returns a heavy-tailed process at the given mean rate with
// the given tail shape. It panics on a non-positive rate or a shape
// <= 1 (the mean gap would be infinite and no rate could be matched).
func NewPareto(rate, shape float64, seed uint64) *ParetoArrivals {
	if rate <= 0 {
		panic("workload: NewPareto with non-positive rate")
	}
	if shape <= 1 {
		panic("workload: NewPareto with shape <= 1 (infinite mean gap)")
	}
	p := &ParetoArrivals{rate: rate, shape: shape, scale: (shape - 1) / (shape * rate), seed: seed}
	p.Reset()
	return p
}

// Name implements ArrivalProcess.
func (p *ParetoArrivals) Name() string { return "pareto" }

// Rate implements ArrivalProcess.
func (p *ParetoArrivals) Rate() float64 { return p.rate }

// Next implements ArrivalProcess.
func (p *ParetoArrivals) Next() float64 { return p.r.Pareto(p.shape, p.scale) }

// Reset implements ArrivalProcess.
func (p *ParetoArrivals) Reset() { p.r = *rng.New(p.seed).Derive(gapStream) }

// NewArrival builds a process by family name at the given mean rate
// with the family's default shape parameters: "poisson"; "uniform"
// (±50% spread); "bursty" (off rate rate/2 for a mean 20 s, burst
// rate 2·rate for a mean 10 s — same long-run mean); "diurnal"
// (amplitude 0.6·rate, 120 s period); "pareto" (tail shape 1.5). It
// is the factory behind the CLI -traffic flag.
func NewArrival(name string, rate float64, seed uint64) (ArrivalProcess, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", rate)
	}
	switch name {
	case "poisson":
		return NewPoisson(rate, seed), nil
	case "uniform":
		return NewUniform(rate, 0.5, seed), nil
	case "bursty":
		return NewBursty(rate/2, 2*rate, 20, 10, seed), nil
	case "diurnal":
		return NewDiurnal(rate, 0.6*rate, 120, 0, seed), nil
	case "pareto":
		return NewPareto(rate, 1.5, seed), nil
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q (have poisson, uniform, bursty, diurnal, pareto)", name)
	}
}

// ArrivalFamilies lists the process names NewArrival accepts, for CLI
// menus.
func ArrivalFamilies() []string {
	return []string{"poisson", "uniform", "bursty", "diurnal", "pareto"}
}
