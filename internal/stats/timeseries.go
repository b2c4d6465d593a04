package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (time, value) observation. Time is in seconds of
// simulated or wall-clock time depending on the producer.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series. Producers must append in
// non-decreasing time order; Append enforces this.
type Series struct {
	Name string
	pts  []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append adds an observation. It panics if t precedes the last
// appended time, because every consumer (resampling, rate computation)
// assumes monotone time.
func (s *Series) Append(t, v float64) {
	if n := len(s.pts); n > 0 && t < s.pts[n-1].T {
		panic(fmt.Sprintf("stats: series %q time went backwards: %v after %v", s.Name, t, s.pts[n-1].T))
	}
	s.pts = append(s.pts, Point{t, v})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th point.
func (s *Series) At(i int) Point { return s.pts[i] }

// Points returns the underlying points (not a copy; callers must not
// mutate).
func (s *Series) Points() []Point { return s.pts }

// Values returns just the values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i, p := range s.pts {
		out[i] = p.V
	}
	return out
}

// ValueAt returns the value in effect at time t under step
// (zero-order-hold) interpolation: the value of the latest point with
// T <= t. Before the first point it returns the first value; on an
// empty series it returns NaN.
func (s *Series) ValueAt(t float64) float64 {
	if len(s.pts) == 0 {
		return math.NaN()
	}
	// Binary search for the first point with T > t.
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return s.pts[0].V
	}
	return s.pts[i-1].V
}

// Resample returns the series sampled at fixed dt intervals over
// [t0, t1] using step interpolation. It is used to align measured
// throughput timelines from different policies onto a common grid for
// figure output.
func (s *Series) Resample(t0, t1, dt float64) *Series {
	if dt <= 0 {
		panic("stats: Resample with non-positive dt")
	}
	out := NewSeries(s.Name)
	for t := t0; t <= t1+dt/2; t += dt {
		out.Append(t, s.ValueAt(t))
	}
	return out
}

// WindowRate converts a series of event times (value ignored) into a
// rate series: events per unit time within each consecutive window of
// the given width. It is the throughput-timeline primitive for figure
// F1.
func WindowRate(eventTimes []float64, t0, t1, window float64) *Series {
	if window <= 0 {
		panic("stats: WindowRate with non-positive window")
	}
	out := NewSeries("rate")
	times := make([]float64, len(eventTimes))
	copy(times, eventTimes)
	sort.Float64s(times)
	idx := 0
	for start := t0; start < t1; start += window {
		end := start + window
		count := 0
		for idx < len(times) && times[idx] < end {
			if times[idx] >= start {
				count++
			}
			idx++
		}
		out.Append(start+window/2, float64(count)/window)
	}
	return out
}

// CSV renders the series as "t,v" lines with a header, for offline
// plotting of the figures.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t,%s\n", s.Name)
	for _, p := range s.pts {
		fmt.Fprintf(&b, "%.6f,%.6f\n", p.T, p.V)
	}
	return b.String()
}
