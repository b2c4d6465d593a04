package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"gridpipe"
	"gridpipe/internal/conc/steal"
)

// The live workloads share one stage kernel and one topology: a
// 4-stage chain s0→s1→s2→s3 with s1 replicable, each stage running
// xorshift iterations over a uint64 carried in a pooled *item.

const chainStages = 4

// xorshift runs n steps of the 13/7/17 xorshift generator. It is
// linear over GF(2), which is what gives every output a closed-form
// reference value (see bitMatrix).
func xorshift(x uint64, n int) uint64 {
	for ; n > 0; n-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// bitMatrix is a 64×64 matrix over GF(2) stored by columns: col[k] is
// the image of bit k.
type bitMatrix [64]uint64

func (m *bitMatrix) apply(x uint64) uint64 {
	var y uint64
	for x != 0 {
		y ^= m[bits.TrailingZeros64(x)]
		x &= x - 1
	}
	return y
}

// xorshiftPower returns the matrix of n xorshift steps, by repeated
// squaring, so checking an output costs a few dozen XORs however many
// iterations the stages ran.
func xorshiftPower(n int) *bitMatrix {
	var step, result bitMatrix
	for k := range step {
		step[k] = xorshift(1<<k, 1)
		result[k] = 1 << k
	}
	mul := func(a, b *bitMatrix) *bitMatrix { // a∘b
		var c bitMatrix
		for k := range c {
			c[k] = a.apply(b[k])
		}
		return &c
	}
	r, s := &result, &step
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = mul(s, r)
		}
		s = mul(s, s)
	}
	return r
}

// item is what travels through the live pipelines. Items come from a
// fixed pool reused round-robin, so the harness allocates nothing per
// item.
type item struct {
	id  uint64
	val uint64
	// intended and sent are clock stamps: when the item was due to be
	// sent and when the send actually began. sent == 0 marks an item
	// whose sojourn is not sampled.
	intended, sent int64
}

// poolItems is the size of the item pool; it must exceed the items any
// pipeline here can hold in flight (about 1 300 at grain 64). The
// feeder also waits on the receiver's published count before reusing a
// slot, so a deeper pipeline would slow the feeder, not corrupt items.
const (
	poolItems  = 1 << 15
	poolMargin = 256
)

// itemTrace is one traced item's stamps; see liveTrace.budget for the
// intervals derived from them.
type itemTrace struct {
	sendStart, sendEnd int64
	fnStart, fnEnd     [chainStages]int64
	recv               int64
}

// handover is when the item left the sender: the send's recorded end,
// clamped to the first function's start — the sender stamps the end
// after the hand-over, and on a second core s0 may already be running.
func (s *itemTrace) handover() int64 { return min(s.sendEnd, s.fnStart[0]) }

// liveTrace holds the preallocated per-item stamp array of one traced
// rep. Items whose id is a multiple of 1<<shift are traced.
type liveTrace struct {
	shift uint
	slots []itemTrace
}

func newLiveTrace(items int, shift uint) *liveTrace {
	return &liveTrace{shift: shift, slots: make([]itemTrace, (items+(1<<shift)-1)>>shift)}
}

func (t *liveTrace) slot(id uint64) *itemTrace {
	if t == nil || id&(1<<t.shift-1) != 0 {
		return nil
	}
	return &t.slots[id>>t.shift]
}

// liveBudget is the per-item mean of each interval a traced item's
// transit splits into. The parts sum to Transit by construction.
type liveBudget struct {
	Items   int
	Ingress float64 // send blocked
	Busy    float64 // Σ stage functions
	Hop     [chainStages]float64
	Egress  float64 // last function end → received
	Transit float64 // send start → received, measured on its own
}

func (b liveBudget) sum() float64 {
	s := b.Ingress + b.Busy + b.Egress
	for _, h := range b.Hop {
		s += h
	}
	return s
}

// budget averages the traced items' intervals.
func (t *liveTrace) budget() liveBudget {
	var b liveBudget
	for i := range t.slots {
		s := &t.slots[i]
		if s.recv == 0 {
			continue
		}
		sendEnd := s.handover()
		b.Items++
		b.Ingress += float64(sendEnd - s.sendStart)
		b.Hop[0] += float64(s.fnStart[0] - sendEnd)
		for k := 0; k < chainStages; k++ {
			b.Busy += float64(s.fnEnd[k] - s.fnStart[k])
			if k > 0 {
				b.Hop[k] += float64(s.fnStart[k] - s.fnEnd[k-1])
			}
		}
		b.Egress += float64(s.recv - s.fnEnd[chainStages-1])
		b.Transit += float64(s.recv - s.sendStart)
	}
	if b.Items == 0 {
		return b
	}
	n := float64(b.Items)
	b.Ingress /= n
	b.Busy /= n
	b.Egress /= n
	b.Transit /= n
	for k := range b.Hop {
		b.Hop[k] /= n
	}
	return b
}

// spans expands the first traced items into the span form the -spans
// file carries: a root span per item with the budget's intervals as
// children.
func (t *liveTrace) spans(log *spanLog, workload string, rep int) {
	if log == nil {
		return
	}
	written := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.recv == 0 {
			continue
		}
		if written++; written > maxSpanItems {
			return
		}
		id := fmt.Sprintf("%s/rep%d/item%d", workload, rep, i<<t.shift)
		sendEnd := s.handover()
		log.add(
			span{Name: "item", Start: s.sendStart, End: s.recv, TraceID: id},
			span{Name: "ingress", Start: s.sendStart, End: sendEnd, Parent: "item", TraceID: id},
			span{Name: "hop.0", Start: sendEnd, End: s.fnStart[0], Parent: "item", TraceID: id},
			span{Name: "egress", Start: s.fnEnd[chainStages-1], End: s.recv, Parent: "item", TraceID: id},
		)
		for k := 0; k < chainStages; k++ {
			log.add(span{Name: fmt.Sprintf("stage.s%d", k), Start: s.fnStart[k], End: s.fnEnd[k], Parent: "item", TraceID: id})
			if k > 0 {
				log.add(span{Name: fmt.Sprintf("hop.%d", k), Start: s.fnEnd[k-1], End: s.fnStart[k], Parent: "item", TraceID: id})
			}
		}
	}
}

// chain is the shared live topology with one workload's parameters.
type chain struct {
	name     string
	iters    [chainStages]int
	replicas int // of s1
	batch    int // WithBatch grain, 0 = unbatched
	// inBuffer is the capacity of the input channel. 0 makes the feeder
	// block on the pipeline's own buffers; a batching caller gives the
	// head room to fill a slab without a goroutine hand-off per item.
	inBuffer int
	// sampleShift: items whose id is a multiple of 1<<sampleShift get a
	// send stamp, so closed-loop sojourn costs two clock reads per
	// sampled item and nothing otherwise.
	sampleShift uint
	traceShift  uint

	clk    clock
	ref    *bitMatrix
	inputs []uint64
	outs   []uint64
	pool   []item
}

// prepare generates n inputs from the seed and the buffers a rep needs.
func (c *chain) prepare(seed uint64, n int) {
	total := 0
	for _, it := range c.iters {
		total += it
	}
	c.clk = newClock()
	c.ref = xorshiftPower(total)
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	c.inputs = make([]uint64, n)
	for i := range c.inputs {
		c.inputs[i] = r.Uint64() | 1 // xorshift's fixed point is 0
	}
	c.outs = make([]uint64, n)
	c.pool = make([]item, poolItems)
}

// stageFn is stage k's function: the bare kernel on an untraced rep,
// the kernel with the traced items stamped around it on a traced one.
func (c *chain) stageFn(k int, tr *liveTrace) gridpipe.StageFunc {
	iters := c.iters[k]
	if tr == nil {
		return func(_ context.Context, v any) (any, error) {
			it := v.(*item)
			it.val = xorshift(it.val, iters)
			return it, nil
		}
	}
	return func(_ context.Context, v any) (any, error) {
		it := v.(*item)
		s := tr.slot(it.id)
		if s != nil {
			s.fnStart[k] = c.clk.now()
		}
		it.val = xorshift(it.val, iters)
		if s != nil {
			s.fnEnd[k] = c.clk.now()
		}
		return it, nil
	}
}

// build makes a fresh single-use pipeline.
func (c *chain) build(tr *liveTrace) (*gridpipe.Pipeline, error) {
	p, err := gridpipe.New(
		gridpipe.Stage("s0", c.stageFn(0, tr)),
		gridpipe.Stage("s1", c.stageFn(1, tr), gridpipe.Replicable(), gridpipe.Replicas(c.replicas)),
		gridpipe.Stage("s2", c.stageFn(2, tr)),
		gridpipe.Stage("s3", c.stageFn(3, tr)),
	)
	if err != nil {
		return nil, err
	}
	if c.batch > 0 {
		if err := p.WithBatch(c.batch); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// counters are the process-wide readings taken around a timed section,
// as a vector so that differences and sums are loops.
type counters [numCounters]float64

const (
	cInjects = iota // steal.Default() handoff counters
	cPops
	cGrabbed
	cSteals
	cParks
	cSpills
	cMallocs // heap objects allocated
	cBytes   // heap bytes allocated
	cGC      // completed GC cycles
	cCPU     // user+system CPU, nanoseconds
	numCounters
)

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := steal.Default().Stats()
	return counters{
		cInjects: float64(st.Injects), cPops: float64(st.Pops), cGrabbed: float64(st.Grabbed),
		cSteals: float64(st.Steals), cParks: float64(st.Parks), cSpills: float64(st.Spills),
		cMallocs: float64(ms.Mallocs), cBytes: float64(ms.TotalAlloc), cGC: float64(ms.NumGC),
		cCPU: float64(processCPU()),
	}
}

// since returns the growth from an earlier reading.
func (c counters) since(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// liveRep is the outcome of one pass of items through a fresh
// pipeline.
type liveRep struct {
	items     int
	delivered int
	failed    int64 // lost, out of order, or ≠ reference
	wall      time.Duration
	sojourn   []float64 // µs, intended send → receipt, sampled items
	late      []float64 // µs, intended → actual send of the same items (0 in a closed loop)
	used      counters
	leaked    int // goroutines left once the run settled
}

// feeder pushes items into the pipeline and returns once every item is
// sent. next hands out the pooled item for id i. Sends are plain
// channel sends, as a caller's would be: the kernel cannot fail and
// nothing cancels a run, so the pipeline always drains them.
type feeder func(in chan<- any, next func(i int) *item, tr *liveTrace)

// closedLoop is the saturated feeder: the next item is offered as soon
// as the pipeline's own buffers accept the previous one.
func (c *chain) closedLoop(n int) feeder {
	sample := uint64(1)<<c.sampleShift - 1
	return func(in chan<- any, next func(int) *item, tr *liveTrace) {
		for i := 0; i < n; i++ {
			it := next(i)
			it.intended, it.sent = 0, 0
			s := tr.slot(it.id)
			if s != nil || it.id&sample == 0 {
				it.sent = c.clk.now()
				it.intended = it.sent
			}
			if s == nil {
				in <- it
				continue
			}
			s.sendStart = it.sent
			in <- it
			s.sendEnd = c.clk.now()
		}
	}
}

// run passes n items through a fresh pipeline with the given feeder and
// checks every output: in input order, and equal to the reference
// value of its input. With tr non-nil the traced items are stamped.
func (c *chain) run(n int, feed feeder, tr *liveTrace) (liveRep, error) {
	rep := liveRep{items: n}
	goroutines := runtime.NumGoroutine()
	p, err := c.build(tr)
	if err != nil {
		return rep, err
	}
	in := make(chan any, c.inBuffer)
	out, errs, err := p.Run(context.Background(), in)
	if err != nil {
		return rep, err
	}

	// The feeder reuses a pool slot only once the receiver has read it:
	// it checks the receiver's published count every 64 items, and the
	// margin covers the items between two checks and two publications.
	var received atomic.Int64
	next := func(i int) *item {
		for i&63 == 0 && int64(i)-received.Load() > poolItems-poolMargin {
			runtime.Gosched()
		}
		it := &c.pool[i&(poolItems-1)]
		it.id, it.val = uint64(i), c.inputs[i]
		return it
	}
	samples := n>>c.sampleShift + 1
	if tr != nil {
		samples += len(tr.slots)
	}
	rep.sojourn = make([]float64, 0, samples)
	rep.late = make([]float64, 0, samples)

	before := readCounters()
	start := c.clk.now()
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		defer close(in)
		feed(in, next, tr)
	}()
	for v := range out {
		it := v.(*item)
		k := rep.delivered
		if it.id != uint64(k) || k >= n {
			rep.failed++
		} else {
			c.outs[k] = it.val
		}
		if it.sent != 0 {
			now := c.clk.now()
			rep.sojourn = append(rep.sojourn, float64(now-it.intended)/1e3)
			rep.late = append(rep.late, float64(it.sent-it.intended)/1e3)
			if s := tr.slot(it.id); s != nil {
				s.recv = now
			}
		}
		rep.delivered++
		if rep.delivered&63 == 0 {
			received.Store(int64(rep.delivered))
		}
	}
	rep.wall = time.Duration(c.clk.now() - start)
	rep.used = readCounters().since(before)
	if err := <-errs; err != nil {
		return rep, fmt.Errorf("%s: %w", c.name, err)
	}
	<-fed

	misplaced := rep.failed
	if rep.delivered < n {
		rep.failed += int64(n - rep.delivered)
	}
	for i := 0; i < min(rep.delivered, n); i++ {
		if c.outs[i] != c.ref.apply(c.inputs[i]) {
			rep.failed++
		}
	}
	if rep.failed != 0 { // say which check failed where the driver keeps it
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d outputs failed: %d out of order or surplus, delivered %d, the rest lost or not the reference value\n",
			c.name, rep.failed, n, misplaced, rep.delivered)
	}
	rep.leaked = settledGoroutines(goroutines)
	return rep, nil
}

// settledGoroutines waits briefly for the run's goroutines to exit and
// returns how many remain beyond the count before it; a leak shows as
// non-zero.
func settledGoroutines(before int) int {
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// serialItemsPerS runs the same four stage functions in a plain loop on
// this goroutine for about d: the baseline runtime.efficiency is
// measured against.
func (c *chain) serialItemsPerS(d time.Duration) float64 {
	var fns [chainStages]gridpipe.StageFunc
	for k := range fns {
		fns[k] = c.stageFn(k, nil)
	}
	ctx := context.Background()
	it := &c.pool[0]
	done, start := 0, time.Now()
	for time.Since(start) < d {
		for i := 0; i < 256; i++ {
			it.id, it.val = uint64(done), c.inputs[done%len(c.inputs)]
			var v any = it
			for _, fn := range fns {
				v, _ = fn(ctx, v) // the kernel cannot fail
			}
			done++
		}
	}
	return float64(done) / time.Since(start).Seconds()
}
