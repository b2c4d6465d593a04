package stats

import "math"

// Online accumulates a mean incrementally (Welford's update). It is the
// accumulator behind every monitor probe: samples
// arrive one at a time from the running pipeline and we never want to
// retain them all.
type Online struct {
	n    int
	mean float64
}

// Add incorporates x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	o.mean += (x - o.mean) / float64(o.n)
}

// Mean returns the running mean, or NaN before any sample.
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Reset clears the accumulator.
func (o *Online) Reset() { *o = Online{} }

// EWMA is an exponentially weighted moving average with smoothing
// factor alpha in (0, 1]; larger alpha weights recent samples more.
// The zero value is invalid; use NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor. It panics
// if alpha is outside (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates x and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	return e.value
}

// Value returns the current average, or NaN before any sample.
func (e *EWMA) Value() float64 {
	if !e.init {
		return math.NaN()
	}
	return e.value
}

// Ring is a fixed-capacity ring buffer of float64 samples. It backs the
// sliding-window forecasters and monitor windows.
type Ring struct {
	buf  []float64
	head int // next write position
	full bool
}

// NewRing returns a ring buffer holding up to n samples. It panics if
// n <= 0.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("stats: NewRing with non-positive capacity")
	}
	return &Ring{buf: make([]float64, n)}
}

// Add appends x, evicting the oldest sample when full.
func (r *Ring) Add(x float64) {
	r.buf[r.head] = x
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
		r.full = true
	}
}

// Len returns the number of samples currently held.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.head
}

// AppendValues appends the samples oldest-first to dst and returns the
// extended slice; it allocates nothing when dst has room.
func (r *Ring) AppendValues(dst []float64) []float64 {
	if r.full {
		dst = append(dst, r.buf[r.head:]...)
	}
	return append(dst, r.buf[:r.head]...)
}

// Mean returns the mean of the held samples, or NaN when empty.
func (r *Ring) Mean() float64 {
	n := r.Len()
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	if r.full {
		for _, v := range r.buf {
			s += v
		}
		return s / float64(len(r.buf))
	}
	for _, v := range r.buf[:r.head] {
		s += v
	}
	return s / float64(n)
}

// Reset empties the ring.
func (r *Ring) Reset() {
	r.head = 0
	r.full = false
}
