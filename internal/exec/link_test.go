package exec

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
	"gridpipe/internal/trace"
)

// linkScript is one directed link and the transfers offered to it:
// transfer i arrives at arr[i] carrying bytes[i].
type linkScript struct {
	link  grid.Link
	arr   []float64
	bytes []float64
}

// decodeLinkScript turns raw bytes into a link script. Byte 0 picks the
// latency and bandwidth; byte 1 a quality trace (stable, or bandwidth
// steps at multiples of 1/64 s, so a step can land on an arrival or a
// wire-free instant). Every further 3-byte group is one transfer: an
// arrival mode and a 16-bit size. The modes are an arrival at the
// previous arrival's instant, one exactly when the wire frees from the
// previous transfer, and a short or a long gap.
func decodeLinkScript(data []byte) linkScript {
	var s linkScript
	if len(data) < 2 {
		data = append(append([]byte(nil), data...), 0, 0) // a stable link, no transfers
	}
	lats := [...]float64{0, 1e-7, 100e-6, 30e-3}
	bws := [...]float64{1.25e6, 125e6}
	s.link = grid.Link{Latency: lats[data[0]%4], Bandwidth: bws[data[0]/4%2]}
	if q := data[1]; q%3 != 0 {
		var steps []trace.StepChange
		for i := 1; i <= int(q%8)+1; i++ {
			steps = append(steps, trace.StepChange{T: float64(i*int(q/8+1)) / 64, Load: float64(i%4) * 0.3})
		}
		s.link.Quality = trace.NewSteps(0, steps...)
	}
	var t, free float64
	for data = data[2:]; len(data) >= 3; data = data[3:] {
		b := float64(int(data[1])<<8|int(data[2])) * 37
		switch data[0] % 4 {
		case 1:
			t = math.Max(t, free)
		case 2:
			t += float64(data[0]/4) * 1e-5
		case 3:
			t += float64(data[0]/4) * 1e-3
		}
		// The FCFS recursion here only places the arrivals; the test
		// compares the two wires it runs, never this.
		start := math.Max(t, free)
		free = start + math.Max(0, s.link.TransferDuration(b, start)-s.link.Latency)
		s.arr = append(s.arr, t)
		s.bytes = append(s.bytes, b)
	}
	return s
}

// refWire is the reference: the two-event FCFS link the executor used
// to run. Transfers wait in a FIFO; the head occupies the wire for its
// serialisation time (a wire-free event), then rides out the latency
// (a delivery event) while the next transfer starts.
type refWire struct {
	eng   *sim.Engine
	link  grid.Link
	bytes []float64
	queue []int
	busy  bool
	got   []float64
}

func (w *refWire) enqueue(id int) {
	w.queue = append(w.queue, id)
	w.pump()
}

func (w *refWire) pump() {
	if w.busy || len(w.queue) == 0 {
		return
	}
	id := w.queue[0]
	w.queue = w.queue[1:]
	w.busy = true
	serial := w.link.TransferDuration(w.bytes[id], w.eng.Now()) - w.link.Latency
	if serial < 0 {
		serial = 0
	}
	w.eng.Schedule(serial, func() {
		w.busy = false
		w.pump()
		w.eng.Schedule(w.link.Latency, func() { w.got[id] = w.eng.Now() })
	})
}

// offer schedules the arrivals as a chain, each one scheduling the
// next when it fires, so an arrival at a wire-free instant fires before
// that wire-free event in some scripts and after it in others.
func offer(eng *sim.Engine, arr []float64, enqueue func(i int)) {
	var next func(i int)
	next = func(i int) {
		enqueue(i)
		if i+1 < len(arr) {
			eng.At(arr[i+1], func() { next(i + 1) })
		}
	}
	if len(arr) > 0 {
		eng.At(arr[0], func() { next(0) })
	}
}

// runRefWire returns each transfer's delivery time on the reference.
func runRefWire(s linkScript) []float64 {
	eng := &sim.Engine{}
	w := &refWire{eng: eng, link: s.link, bytes: s.bytes, got: make([]float64, len(s.arr))}
	offer(eng, s.arr, w.enqueue)
	for eng.Step() {
	}
	return w.got
}

// runLinkServer returns each transfer's delivery time through the
// executor's link server, read where the part reaches the sink.
func runLinkServer(t testing.TB, s linkScript) []float64 {
	g, err := grid.Homogeneous(2, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetLink(0, 1, s.link); err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(1, 0.1, 0)
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, model.OneToOne(1), Options{TotalItems: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.admitted = 1 // the source stays shut: the script drives the link alone
	got := make([]float64, len(s.arr))
	e.SetItemHooks(func(seq int) { got[seq] = eng.Now() }, nil)
	ls := e.link(0, 1)
	offer(eng, s.arr, func(i int) {
		e.inFlight++
		ls.enqueue(&item{seq: i}, spec.NumStages(), s.bytes[i])
	})
	for eng.Step() {
	}
	if e.Done() != len(s.arr) {
		t.Fatalf("%d of %d transfers delivered", e.Done(), len(s.arr))
	}
	return got
}

// checkLinkScript fails unless the link server delivers every transfer
// at the reference wire's instant, bit for bit.
func checkLinkScript(t testing.TB, data []byte) {
	s := decodeLinkScript(data)
	want, got := runRefWire(s), runLinkServer(t, s)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("link %+v, transfer %d of %d (arrival %v, %v B): delivered at %v, reference wire at %v",
				s.link, i, len(want), s.arr[i], s.bytes[i], got[i], want[i])
		}
	}
}

// Property: over random sizes and gaps, same-instant arrivals, arrivals
// exactly at a wire-free instant and a time-varying Link.Quality, the
// link server's one delivery event fires exactly when the two-event
// FCFS wire (wire-free, then delivery) delivered.
func TestLinkServerMatchesTwoEventWire(t *testing.T) {
	r := rng.New(11)
	for c := 0; c < 300; c++ {
		data := make([]byte, 2+3*(1+r.Intn(80)))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		checkLinkScript(t, data)
	}
}

// FuzzLinkTransfers runs the same property over fuzzed scripts; its
// seeds are checked in under testdata/fuzz.
func FuzzLinkTransfers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+3*500 {
			t.Skip("longer scripts add time, not cases")
		}
		checkLinkScript(t, data)
	})
}

// A static chain fires one event per stage completion and one per
// inter-node hop (source to the entry stage, stage to stage, exit stage
// to the sink), and nothing else: an intra-node move is a direct call
// and a link transfer is a single delivery event.
func TestStaticChainEventsPerItem(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.WANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(4, 0.1, 1e5) // source and sink on node 0
	for _, tc := range []struct {
		m    model.Mapping
		hops int
	}{
		{model.OneToOne(4), 4},           // 0→0, then 0→1→2→3, then 3→0
		{model.FromNodes(0, 0, 1, 1), 2}, // 0→1 between stages, 1→0 to the sink
		{model.FromNodes(0, 0, 0, 0), 0}, // everything on the source node
		{model.FromNodes(2, 1, 2, 0), 4}, // 0→2→1→2→0, the exit on the sink
	} {
		const items = 500
		eng := &sim.Engine{}
		e, err := New(eng, g, spec, tc.m, Options{MaxInFlight: 8, TotalItems: items})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		events := 0
		for e.Done() < items && eng.Step() {
			events++
		}
		if want := items * (spec.NumStages() + tc.hops); events != want {
			t.Errorf("%v: %d events for %d items, want %d (%d stages + %d hops per item)",
				tc.m, events, items, want, spec.NumStages(), tc.hops)
		}
	}
}
