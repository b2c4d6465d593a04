package model

import (
	"fmt"
	"math"
)

// CTMC is a finite continuous-time Markov chain described by its
// transition rates. It supports exact steady-state solution for the
// small chains used to validate the analytic pipeline model.
type CTMC struct {
	n     int
	edges []ctmcEdge
}

type ctmcEdge struct {
	from, to int
	rate     float64
	tag      string
}

// NewCTMC returns an empty chain over n states. It panics for n <= 0.
func NewCTMC(n int) *CTMC {
	if n <= 0 {
		panic("model: NewCTMC with non-positive state count")
	}
	return &CTMC{n: n}
}

// AddTagged adds a transition from → to with the given rate and a
// label; flows can then be computed per tag (e.g. "departure") with
// FlowTag. Multiple calls for the same pair accumulate. It panics on
// invalid states, self-loops, or non-positive rates.
func (c *CTMC) AddTagged(from, to int, rate float64, tag string) {
	if from < 0 || from >= c.n || to < 0 || to >= c.n {
		panic(fmt.Sprintf("model: AddTagged with invalid states %d->%d", from, to))
	}
	if from == to {
		panic("model: AddTagged self-loop")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("model: AddTagged with invalid rate %v", rate))
	}
	c.edges = append(c.edges, ctmcEdge{from, to, rate, tag})
}

// SteadyState returns the stationary distribution π solving πQ = 0,
// Σπ = 1, computed by power iteration on the uniformised chain
// P = I + Q/Λ. It returns an error if the iteration fails to converge
// (e.g. the chain is reducible with the probability mass split across
// components — the pipeline chains we build are always irreducible).
func (c *CTMC) SteadyState() ([]float64, error) {
	// Exit rates and uniformisation constant.
	exit := make([]float64, c.n)
	for _, e := range c.edges {
		exit[e.from] += e.rate
	}
	lambda := 0.0
	for _, r := range exit {
		if r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		return nil, fmt.Errorf("model: chain has no transitions")
	}
	lambda *= 1.05 // strictly dominate so P has self-loops everywhere (aperiodicity)

	pi := make([]float64, c.n)
	next := make([]float64, c.n)
	for i := range pi {
		pi[i] = 1 / float64(c.n)
	}
	const (
		maxIter = 200000
		tol     = 1e-12
	)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = pi[i] * (1 - exit[i]/lambda)
		}
		for _, e := range c.edges {
			next[e.to] += pi[e.from] * e.rate / lambda
		}
		// Normalise to damp accumulation error.
		sum := 0.0
		for _, v := range next {
			sum += v
		}
		diff := 0.0
		for i := range next {
			next[i] /= sum
			d := math.Abs(next[i] - pi[i])
			if d > diff {
				diff = d
			}
		}
		pi, next = next, pi
		if diff < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("model: steady-state iteration did not converge")
}

// FlowTag returns the steady-state rate of all transitions carrying the
// given tag; with tag "departure" on last-stage completions this is the
// chain's exact throughput.
func (c *CTMC) FlowTag(pi []float64, tag string) float64 {
	total := 0.0
	for _, e := range c.edges {
		if e.tag == tag {
			total += pi[e.from] * e.rate
		}
	}
	return total
}
