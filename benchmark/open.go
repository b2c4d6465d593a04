package main

import (
	"time"

	"gridpipe/internal/workload"
)

// poissonOffsets draws the intended send times, in nanoseconds from the
// start of the schedule, of a Poisson stream over the horizon.
func poissonOffsets(rate float64, seed uint64, horizon time.Duration) []int64 {
	p := workload.NewPoisson(rate, seed)
	offsets := make([]int64, 0, int(rate*horizon.Seconds()*1.1)+16)
	for t := p.Next(); t < horizon.Seconds(); t += p.Next() {
		offsets = append(offsets, int64(t*1e9))
	}
	return offsets
}

// prefix returns the part of a schedule due before the horizon.
func prefix(offsets []int64, horizon time.Duration) []int64 {
	n := 0
	for n < len(offsets) && offsets[n] < int64(horizon) {
		n++
	}
	return offsets[:n]
}

// pace is the open-loop generator: it sleeps to the next due time —
// it never spins or yields, which would take a core from the system
// under test — and on waking emits everything that has become due,
// each with its intended time and the time it was actually sent. An
// item is never dropped for being late.
func pace(due []int64, now func() int64, sleep func(time.Duration), emit func(i int, intended, actual int64)) {
	for i := 0; i < len(due); {
		t := now()
		if due[i] > t {
			sleep(time.Duration(due[i] - t))
			t = now()
		}
		for ; i < len(due) && due[i] <= t; i++ {
			emit(i, due[i], now())
		}
	}
}

// openLoop feeds the pipeline on the schedule regardless of how fast
// it drains. Every item is stamped, so sojourn (from intended) and
// transit (from actual) cover the whole stream.
func (c *chain) openLoop(offsets []int64) feeder {
	return func(in chan<- any, next func(int) *item, tr *liveTrace) {
		start := c.clk.now()
		now := func() int64 { return c.clk.now() - start }
		pace(offsets, now, preciseSleep, func(i int, intended, actual int64) {
			it := next(i)
			it.intended, it.sent = start+intended, start+actual
			s := tr.slot(it.id)
			if s != nil {
				s.sendStart = it.sent
			}
			in <- it
			if s != nil {
				s.sendEnd = c.clk.now()
			}
		})
	}
}
