// Package rng provides a small, deterministic pseudo-random number
// generator and a battery of distributions used by the gridpipe
// workload generators and load traces.
//
// The generator is SplitMix64: it is fast, has a full 2^64 period per
// stream, passes the statistical batteries relevant for simulation
// workloads, and — unlike math/rand's global source — is trivially
// reproducible across runs and across goroutines (each component of the
// simulator derives its own stream from a root seed). Determinism is a
// hard requirement: every experiment in the harness must regenerate the
// exact same table from the same seed.
package rng

import "math"

// Rand is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New, which
// avalanche-mixes the seed so that nearby seeds yield unrelated streams.
type Rand struct {
	state uint64
	// cached second normal variate from the Box-Muller transform.
	haveGauss bool
	gauss     float64
}

// New returns a generator seeded with seed. Two generators created with
// different seeds (even consecutive integers) produce statistically
// independent streams thanks to the SplitMix64 output mix.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Derive returns a new independent generator whose stream is a pure
// function of the parent seed and the given label. It is the way
// simulator components (one per grid node, one per trace, ...) obtain
// private streams without consuming numbers from the parent.
func (r *Rand) Derive(label uint64) *Rand {
	// Mix the label in with two rounds so Derive(1) and Derive(2)
	// diverge immediately.
	s := r.state + 0x9e3779b97f4a7c15*(label+1)
	s = mix(s)
	s = mix(s + 0xbf58476d1ce4e5b9)
	return &Rand{state: s}
}

// SeedFor derives the seed of an independent keyed sub-stream from a
// root seed: rng.New(SeedFor(root, label)) produces exactly the stream
// rng.New(root).Derive(label) does. Components that take a plain seed
// (work samplers, searchers, per-job arrival processes) use it so a
// multi-job run's randomness is a pure function of (root, label) — the
// cluster scheduler derives one label per job, which keeps every job's
// stream identical regardless of how jobs interleave on the grid.
func SeedFor(root uint64, label uint64) uint64 {
	return New(root).Derive(label).state
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// modulo bias is below 2^-40 for the n used in the simulator, but we
	// still use the high-bits multiply trick because it is branch-free.
	return int((uint64(uint32(r.Uint64())) * uint64(n)) >> 32)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0); Float64 can return exactly 0.
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, via the Box-Muller transform (the second variate
// of each pair is cached).
func (r *Rand) Normal(mean, stddev float64) float64 {
	if r.haveGauss {
		r.haveGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return mean + stddev*u*f
}

// LogNormal returns a log-normally distributed variate where the
// underlying normal has parameters mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto(shape, scale) variate with minimum value
// scale. Heavy-tailed service times in grid workloads are traditionally
// modelled with shape in (1, 2].
func (r *Rand) Pareto(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale / math.Pow(u, 1/shape)
}
