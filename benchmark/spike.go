package main

import (
	"fmt"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/workload"
)

// liveSpike is workload.RunLive's scenario: the genome pipeline on
// sleep-occupancy stages, a 0.6 load spike on the heaviest stage a
// third of the way in, and the reactive live controller folding
// reserve workers in.
type liveSpike struct {
	opts workload.LiveOptions
}

func (w *liveSpike) setup(cfg runCfg) error {
	w.opts = workload.LiveOptions{
		Policy:       adaptive.PolicyReactive,
		Items:        cfg.scale(3000),
		SpikeLoad:    0.6,
		Victim:       workload.Auto,
		InjectAtItem: workload.Auto,
	}
	warm := w.opts
	warm.Items = max(w.opts.Items/10, 30)
	warm.SpikeLoad = 0
	_, err := workload.RunLive(workload.Genome(), warm)
	return err
}

func (w *liveSpike) measure(cfg runCfg, m *measurement) error {
	var (
		items, under, resizes, first, workers []float64
		walls                                 []time.Duration
		clk                                   = newClock()
	)
	err := repLoop(cfg.budget(), 1, func(i int) error {
		var out workload.LiveOutcome
		var err error
		id := fmt.Sprintf("live_spike/rep%d", i)
		cfg.spans.timed(clk, "workload.RunLive", "", id, func() {
			out, err = workload.RunLive(workload.Genome(), w.opts)
		})
		if err != nil {
			return err
		}
		m.Attempted += int64(w.opts.Items)
		m.Failed += int64(w.opts.Items - out.Items)
		items = append(items, float64(out.Items))
		walls = append(walls, time.Duration(out.Elapsed*float64(time.Second)))
		under = append(under, out.ThroughputUnder)
		resizes = append(resizes, float64(len(out.Events)))
		total := 0
		for _, r := range out.Replicas {
			total += r
		}
		workers = append(workers, float64(total))
		if len(out.Events) > 0 {
			first = append(first, out.Events[0].Time)
		}
		return nil
	})
	if err != nil {
		return err
	}
	wholeRun(m, items, walls)
	if cfg.traced {
		m.set("items_per_s_under_spike", median(under))
		m.set("liveadapt.resizes", median(resizes))
		m.set("liveadapt.first_resize_s", median(first))
		m.set("liveadapt.final_workers", median(workers))
		m.set("failed_share", float64(m.Failed)/float64(m.Attempted))
	}
	return nil
}
