package stats

import (
	"fmt"
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
