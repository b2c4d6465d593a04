package main

import (
	"fmt"
	"time"
)

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed    uint64
	seconds float64 // how long to measure
	traced  bool    // per-layer run: counters, traced reps, probes
	quick   bool    // ~1/20 size smoke run; numbers not comparable
	spans   *spanLog
}

func (c runCfg) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// scale shrinks a size for -quick.
func (c runCfg) scale(n int) int {
	if c.quick {
		return max(n/20, 1)
	}
	return n
}

// runner is one of the seven named workloads.
type runner interface {
	// setup generates the inputs from the seed and runs the warm-up
	// pass; it is timed as setup_s and never overlaps a timed section.
	setup(cfg runCfg) error
	// measure runs timed reps for about cfg.seconds and fills m.
	measure(cfg runCfg, m *measurement) error
}

func newWorkload(name string) (runner, error) {
	switch name {
	case "chain_heavy":
		return &closedChain{repItems: 12_000, chain: chain{name: name,
			iters: [chainStages]int{2000, 16000, 4000, 2000}, replicas: 2}}, nil
	case "chain_light":
		return &closedChain{repItems: 50_000, probe: probeLive, chain: chain{name: name,
			iters: [chainStages]int{8, 8, 8, 8}, replicas: 4, sampleShift: 3}}, nil
	case "chain_batched":
		return &closedChain{repItems: 600_000, probe: probeBatched, chain: chain{name: name,
			iters: [chainStages]int{8, 8, 8, 8}, replicas: 4, batch: 64, inBuffer: 256, sampleShift: 6, traceShift: 4}}, nil
	case "open_poisson":
		return &openPoisson{chain: chain{name: name,
			iters: [chainStages]int{8, 8, 8, 8}, replicas: 4}}, nil
	case "live_spike":
		return &liveSpike{}, nil
	case "sim_spike":
		return &simSpike{}, nil
	case "cluster_stream":
		return &clusterStream{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repLoop calls rep until the next one would not fit in the budget,
// always at least minReps times.
func repLoop(budget time.Duration, minReps int, rep func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		if i+1 >= minReps && time.Since(start)+time.Since(t) > budget {
			return nil
		}
	}
}

// wholeRun fills the end-to-end metrics of a workload whose unit of
// work, as its caller sees it, is a whole run (the system is handed
// everything at once and the result is the finished run): throughput
// is items per wall second of a rep, and sojourn — time from handing
// the work over to holding the result — is the rep's wall time. With
// only a few reps no percentile above the median is supported, so both
// sojourn figures read the median rep.
func wholeRun(m *measurement, items []float64, walls []time.Duration) {
	ips := make([]float64, len(walls))
	us := make([]float64, len(walls))
	for i, w := range walls {
		ips[i] = items[i] / w.Seconds()
		us[i] = float64(w.Microseconds())
	}
	lo, hi := minMax(ips)
	m.set("items_per_s", median(ips))
	m.note("items_per_s", fmt.Sprintf("median of %d reps, min %.0f max %.0f", len(ips), lo, hi))
	sorted := sortedCopy(us)
	m.set("sojourn_p50_us", median(sorted))
	m.note("sojourn_p50_us", fmt.Sprintf("%d whole-run samples", len(sorted)))
	setTail(m, "sojourn_p95_us", sorted, gatedTail)
}
