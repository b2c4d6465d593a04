package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// closedChain is a saturated closed loop over the chain: the feeder
// blocks on the pipeline's own buffers.
type closedChain struct {
	chain
	repItems int // per rep; shrunk by -quick in setup
	// probe runs the isolation probes attached to this workload in its
	// per-layer run (nil for none).
	probe func(*measurement) error
}

func (w *closedChain) setup(cfg runCfg) error {
	w.repItems = cfg.scale(w.repItems)
	w.prepare(cfg.seed, w.repItems)
	rep, err := w.run(w.repItems, w.closedLoop(w.repItems), nil)
	if err != nil {
		return err
	}
	if rep.failed != 0 {
		return fmt.Errorf("%s: warm-up: %d of %d outputs wrong", w.name, rep.failed, w.repItems)
	}
	return nil
}

func (w *closedChain) measure(cfg runCfg, m *measurement) error {
	var plain, traced []liveRep
	var budget liveBudget
	minReps := 1
	if cfg.traced {
		minReps = 2
	}
	err := repLoop(cfg.budget(), minReps, func(i int) error {
		var tr *liveTrace
		if cfg.traced && i%2 == 1 { // alternate, so drift hits both alike
			tr = newLiveTrace(w.repItems, w.traceShift)
		}
		rep, err := w.run(w.repItems, w.closedLoop(w.repItems), tr)
		if err != nil {
			return err
		}
		if tr == nil {
			plain = append(plain, rep)
			return nil
		}
		traced = append(traced, rep)
		b := tr.budget()
		if err := checkBudget(w.name, b); err != nil {
			return err
		}
		budget = mergeBudgets(budget, b)
		if len(traced) == 1 { // one rep's sample is enough for the span file
			tr.spans(cfg.spans, w.name, i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	reportLive(m, plain)
	if cfg.traced {
		reportLayers(m, plain, traced, budget)
		serial := w.serialItemsPerS(300 * time.Millisecond)
		m.set("baseline.serial_items_per_s", serial)
		m.set("runtime.efficiency", m.Values["items_per_s"]/(float64(runtime.GOMAXPROCS(0))*serial))
		if w.probe != nil {
			return w.probe(m)
		}
	}
	return nil
}

// checkBudget asserts the traced parts add up to the separately
// measured transit.
func checkBudget(name string, b liveBudget) error {
	if b.Items == 0 {
		return fmt.Errorf("%s: traced rep recorded no items", name)
	}
	if math.Abs(b.sum()-b.Transit) > 0.01*b.Transit {
		return fmt.Errorf("%s: traced budget %.0f ns does not sum to transit %.0f ns", name, b.sum(), b.Transit)
	}
	return nil
}

// mergeBudgets combines two per-item means, weighted by item count.
func mergeBudgets(a, b liveBudget) liveBudget {
	n := float64(a.Items + b.Items)
	if n == 0 {
		return a
	}
	wa, wb := float64(a.Items)/n, float64(b.Items)/n
	out := liveBudget{
		Items:   a.Items + b.Items,
		Ingress: wa*a.Ingress + wb*b.Ingress,
		Busy:    wa*a.Busy + wb*b.Busy,
		Egress:  wa*a.Egress + wb*b.Egress,
		Transit: wa*a.Transit + wb*b.Transit,
	}
	for k := range out.Hop {
		out.Hop[k] = wa*a.Hop[k] + wb*b.Hop[k]
	}
	return out
}

// itemsPerS is each rep's delivered items per wall second.
func itemsPerS(reps []liveRep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = float64(r.delivered) / r.wall.Seconds()
	}
	return out
}

// pooled concatenates and sorts one sample set across reps.
func pooled(reps []liveRep, pick func(liveRep) []float64) []float64 {
	var all []float64
	for _, r := range reps {
		all = append(all, pick(r)...)
	}
	sort.Float64s(all)
	return all
}

// reportLive fills the end-to-end numbers and the correctness ledger
// from the untraced reps. Each rep yields its own throughput, median
// sojourn and tail sojourn, and the run reports the median rep of each:
// a stall that spoils one rep's tail does not set the run's.
func reportLive(m *measurement, reps []liveRep) {
	var p50s, p95s []float64
	samples, used := 0, gatedTail
	for _, r := range reps {
		m.Attempted += int64(r.items)
		m.Failed += r.failed
		soj := sortedCopy(r.sojourn)
		samples = len(soj)
		p50s = append(p50s, median(soj))
		var p95 float64
		p95, used = tail(soj, gatedTail)
		p95s = append(p95s, p95)
	}
	ips := itemsPerS(reps)
	lo, hi := minMax(ips)
	m.set("items_per_s", median(ips))
	m.note("items_per_s", fmt.Sprintf("median of %d reps, min %.0f max %.0f", len(ips), lo, hi))
	m.set("sojourn_p50_us", median(p50s))
	m.set("sojourn_p95_us", median(p95s))
	note := fmt.Sprintf("median of %d reps' values, ~%d samples each", len(reps), samples)
	m.note("sojourn_p50_us", note)
	if used != gatedTail {
		note += fmt.Sprintf(", which support only p%g", used*100)
	}
	m.note("sojourn_p95_us", note)
}

// gatedTail is the tail percentile of the end-to-end sojourn metric.
// p99 is reported too (per-layer, pooled over the reps), but on the
// 2-CPU build box its run-to-run spread is 25 % on open_poisson, so it
// cannot carry a regression bound; p95's is 8 %.
const gatedTail = 0.95

// setTail records a tail percentile, noting the sample count and the
// percentile actually read when the samples cannot support the one
// named.
func setTail(m *measurement, name string, sorted []float64, want float64) {
	v, used := tail(sorted, want)
	m.set(name, v)
	if used == want {
		m.note(name, fmt.Sprintf("%d samples", len(sorted)))
	} else {
		m.note(name, fmt.Sprintf("%d samples support only p%g", len(sorted), used*100))
	}
}

// reportLayers fills the counters around the untraced reps, the traced
// budget, and the tracing overhead.
func reportLayers(m *measurement, plain, traced []liveRep, b liveBudget) {
	var used counters
	var wall time.Duration
	items, leaked := 0.0, 0
	for _, r := range plain {
		used.add(r.used)
		wall += r.wall
		items += float64(r.delivered)
		leaked = max(leaked, r.leaked)
	}
	if items == 0 {
		return
	}
	m.set("steal.injects_per_item", used[cInjects]/items)
	m.set("steal.pops_per_item", used[cPops]/items)
	m.set("steal.grabbed_per_item", used[cGrabbed]/items)
	m.set("steal.steals_per_item", used[cSteals]/items)
	m.set("steal.parks_per_item", used[cParks]/items)
	m.set("steal.spills", used[cSpills])
	m.set("runtime.cpu_util", used[cCPU]/(float64(wall)*float64(runtime.GOMAXPROCS(0))))
	m.set("runtime.cpu_ns_per_item", used[cCPU]/items)
	m.set("runtime.bytes_per_item", used[cBytes]/items)
	m.set("runtime.gc_cycles", used[cGC])
	m.set("runtime.goroutines_after", float64(leaked))
	m.set("allocs_per_item", used[cMallocs]/items)
	m.set("failed_share", float64(m.Failed)/float64(m.Attempted))
	setTail(m, "sojourn_p99_us", pooled(plain, func(r liveRep) []float64 { return r.sojourn }), 0.99)

	if len(traced) == 0 {
		return
	}
	m.set("gridpipe.ingress_wait_ns", b.Ingress)
	m.set("stagefn.busy_ns", b.Busy)
	for k, h := range b.Hop {
		m.set(fmt.Sprintf("pipeline.hop%d_ns", k), h)
	}
	m.set("pipeline.egress_ns", b.Egress)
	m.note("pipeline.egress_ns", fmt.Sprintf("budget over %d traced items sums to %.0f ns, transit %.0f ns", b.Items, b.sum(), b.Transit))
	m.set("trace.overhead_share", 1-median(itemsPerS(traced))/median(itemsPerS(plain)))
}

// sloLimit is the open-loop latency limit: an item whose sojourn
// exceeds it, or that is lost, misses the SLO.
const sloLimit = 5 * time.Millisecond

// openPoisson offers a Poisson stream at a quarter of chain_light's
// capacity through the same chain, one second per rep.
type openPoisson struct {
	chain
	windows [][]int64 // 25 000/s, one schedule per second of the run
	fast    [][]int64 // 60 000/s, the informational overload phase
}

const (
	openRate   = 25_000
	fastRate   = 60_000
	openWindow = time.Second
)

// windows cuts a schedule into consecutive spans of the given length,
// each re-based to start at 0.
func windows(offsets []int64, span time.Duration) [][]int64 {
	var out [][]int64
	for k := 0; len(offsets) > 0; k++ {
		base := int64(k) * int64(span)
		part := prefix(offsets, time.Duration(base)+span)
		if len(part) == 0 {
			continue
		}
		w := make([]int64, len(part))
		for i, t := range part {
			w[i] = t - base
		}
		out = append(out, w)
		offsets = offsets[len(part):]
	}
	return out
}

func (w *openPoisson) setup(cfg runCfg) error {
	w.windows = windows(poissonOffsets(openRate, cfg.seed, cfg.budget()), openWindow)
	w.fast = windows(poissonOffsets(fastRate, cfg.seed+1, cfg.budget()*3/10), openWindow)
	if len(w.windows) == 0 || len(w.fast) == 0 {
		return fmt.Errorf("%s: %v is too short for a schedule", w.name, cfg.budget())
	}
	longest := 0
	for _, part := range append(w.windows, w.fast...) {
		longest = max(longest, len(part))
	}
	w.prepare(cfg.seed, longest)
	warm := prefix(w.windows[0], 200*time.Millisecond)
	rep, err := w.run(len(warm), w.openLoop(warm), nil)
	if err != nil {
		return err
	}
	if rep.failed != 0 {
		return fmt.Errorf("%s: warm-up: %d of %d outputs wrong", w.name, rep.failed, len(warm))
	}
	return nil
}

// deliveredByEnd counts a schedule's items received by its end (plus
// the SLO limit, for the items due in its last instants).
func deliveredByEnd(offsets []int64, rep liveRep) int {
	if len(offsets) == 0 {
		return 0
	}
	end := float64(offsets[len(offsets)-1]+int64(sloLimit)) / 1e3
	n := 0
	for i, soj := range rep.sojourn {
		if float64(offsets[i])/1e3+soj <= end {
			n++
		}
	}
	return n
}

func (w *openPoisson) measure(cfg runCfg, m *measurement) error {
	// The untraced run offers every window; the per-layer run splits
	// them 4:3:3 into an untraced phase (counters), a traced phase
	// (budget) and the 60 000/s phase.
	n := len(w.windows)
	plainN, tracedN := n, 0
	if cfg.traced {
		plainN, tracedN = max(n*4/10, 1), max(n*3/10, 1)
	}
	var plain, traced []liveRep
	var budget liveBudget
	misses, offered, onTime := int64(0), 0, 0
	for i := 0; i < plainN+tracedN; i++ {
		sched := w.windows[i%n]
		var tr *liveTrace
		if i >= plainN {
			tr = newLiveTrace(len(sched), 0)
		}
		rep, err := w.run(len(sched), w.openLoop(sched), tr)
		if err != nil {
			return err
		}
		if tr != nil {
			traced = append(traced, rep)
			b := tr.budget()
			if err := checkBudget(w.name, b); err != nil {
				return err
			}
			budget = mergeBudgets(budget, b)
			if len(traced) == 1 {
				tr.spans(cfg.spans, w.name, i)
			}
			continue
		}
		plain = append(plain, rep)
		offered += rep.items
		misses += rep.failed
		for _, soj := range rep.sojourn {
			if soj > float64(sloLimit.Microseconds()) {
				misses++
			}
		}
		onTime += deliveredByEnd(sched, rep)
	}
	reportLive(m, plain)
	if !cfg.traced {
		return nil
	}

	// Backlog: under 99 % of the whole schedule delivered by its end
	// means the rate is not sustained, and every item counts as a miss.
	// It is judged over the run, not per window, and it is a latency
	// verdict, not a wrong output: a shared host that freezes the VM for
	// 20–50 ms across the end of one window must not fail the run.
	if share := float64(onTime) / float64(offered); share < 0.99 {
		misses = int64(offered)
		m.note("slo_miss_share", fmt.Sprintf("BACKLOG: %.2f %% of offered delivered by the end of the schedule", 100*share))
	}
	m.set("slo_miss_share", float64(misses)/float64(offered))
	transit := pooled(plain, func(r liveRep) []float64 { // actual send → receipt
		out := make([]float64, len(r.sojourn))
		for i, soj := range r.sojourn {
			out[i] = soj - r.late[i]
		}
		return out
	})
	lateness := pooled(plain, func(r liveRep) []float64 { return r.late })
	soj := pooled(plain, func(r liveRep) []float64 { return r.sojourn })
	m.set("transit_p50_us", median(transit))
	setTail(m, "transit_p99_us", transit, 0.99)
	setTail(m, "sojourn_p999_us", soj, 0.999)
	m.set("gen.late_p50_us", median(lateness))
	setTail(m, "gen.late_p99_us", lateness, 0.99)
	reportLayers(m, plain, traced, budget)

	var fast []liveRep
	var shares []float64
	for _, sched := range w.fast {
		rep, err := w.run(len(sched), w.openLoop(sched), nil)
		if err != nil {
			return err
		}
		m.Attempted += int64(rep.items)
		m.Failed += rep.failed
		fast = append(fast, rep)
		shares = append(shares, float64(deliveredByEnd(sched, rep))/float64(len(sched)))
	}
	setTail(m, "open.r60k.sojourn_p99_us", pooled(fast, func(r liveRep) []float64 { return r.sojourn }), 0.99)
	m.set("open.r60k.delivered_share", mean(shares))
	return nil
}
