package sim

import (
	"hash/fnv"
	"math"
	"testing"

	"gridpipe/internal/rng"
)

// flowNet is the property-test workload: J jobs, each traversing a
// random route of nodes spread across partitions, with FCFS service
// (a busy-until accumulator per node) and per-hop transfer delays.
// Cross-partition hops carry at least the lookahead; intra-partition
// hops may be arbitrarily short. Every service time, delay, and start
// time is drawn from a seeded generator with full mantissa entropy, so
// event-time ties are (measure-zero) impossible and each node performs
// the same float operations in the same order in every execution mode
// — which is exactly why a partitioned run's completion digest must
// equal the single-threaded one bit for bit.
type flowNet struct {
	assign []int // node -> partition
	busy   []float64
	routes [][]int
	svc    [][]float64
	delay  [][]float64
	start  []float64
	finish []float64

	// Exactly one of pe/eng is set: the partitioned or the reference
	// single-engine execution of the same workload.
	pe  *ParallelEngine
	eng *Engine
}

type flowTok struct {
	net      *flowNet
	job, hop int
}

func buildFlowNet(seed uint64, nodes, parts, jobs, hops int, lookahead float64) *flowNet {
	r := rng.New(seed)
	n := &flowNet{
		assign: make([]int, nodes),
		busy:   make([]float64, nodes),
		routes: make([][]int, jobs),
		svc:    make([][]float64, jobs),
		delay:  make([][]float64, jobs),
		start:  make([]float64, jobs),
		finish: make([]float64, jobs),
	}
	for i := range n.assign {
		n.assign[i] = r.Intn(parts)
	}
	for j := 0; j < jobs; j++ {
		n.routes[j] = make([]int, hops)
		n.svc[j] = make([]float64, hops)
		n.delay[j] = make([]float64, hops)
		for h := 0; h < hops; h++ {
			n.routes[j][h] = r.Intn(nodes)
			n.svc[j][h] = 0.01 + 0.3*r.Float64()
		}
		for h := 1; h < hops; h++ {
			if n.assign[n.routes[j][h-1]] != n.assign[n.routes[j][h]] {
				n.delay[j][h] = lookahead * (1 + r.Float64())
			} else {
				n.delay[j][h] = 0.001 * r.Float64()
			}
		}
		n.start[j] = r.Float64()
		n.finish[j] = math.NaN()
	}
	return n
}

func (n *flowNet) engineAt(node int) *Engine {
	if n.eng != nil {
		return n.eng
	}
	return &n.pe.parts[n.assign[node]].Engine
}

func flowArrive(arg any) {
	tok := arg.(*flowTok)
	n := tok.net
	node := n.routes[tok.job][tok.hop]
	eng := n.engineAt(node)
	now := eng.Now()
	startSvc := now
	if n.busy[node] > startSvc {
		startSvc = n.busy[node]
	}
	done := startSvc + n.svc[tok.job][tok.hop]
	n.busy[node] = done
	eng.ScheduleArg(done-now, flowDepart, tok)
}

func flowDepart(arg any) {
	tok := arg.(*flowTok)
	n := tok.net
	from := n.routes[tok.job][tok.hop]
	eng := n.engineAt(from)
	tok.hop++
	if tok.hop >= len(n.routes[tok.job]) {
		n.finish[tok.job] = eng.Now()
		return
	}
	to := n.routes[tok.job][tok.hop]
	d := n.delay[tok.job][tok.hop]
	if n.pe != nil && n.assign[from] != n.assign[to] {
		n.pe.parts[n.assign[from]].Send(n.assign[to], d, flowArrive, tok)
		return
	}
	eng.ScheduleArg(d, flowArrive, tok)
}

// inject schedules every job's first arrival on the engine owning its
// entry node.
func (n *flowNet) inject() {
	for j := range n.routes {
		tok := &flowTok{net: n, job: j}
		n.engineAt(n.routes[j][0]).AtArg(n.start[j], flowArrive, tok)
	}
}

// digest hashes the bit patterns of every job's completion time.
func (n *flowNet) digest(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for j, f := range n.finish {
		if math.IsNaN(f) {
			t.Fatalf("job %d never finished", j)
		}
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPartitionedDigestMatchesGolden is the determinism cross-check:
// for random topologies and partition/worker counts, the partitioned
// run's completion digest equals the single-threaded golden digest for
// the same seed.
func TestPartitionedDigestMatchesGolden(t *testing.T) {
	const lookahead = 0.05
	cases := []struct{ nodes, parts, jobs, hops int }{
		{8, 2, 6, 12},
		{17, 3, 10, 20},
		{40, 5, 25, 16},
		{64, 8, 40, 10},
		{30, 30, 12, 8}, // one node-ish per partition
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, tc := range cases {
			// Golden: the same workload on one plain Engine.
			ref := buildFlowNet(seed, tc.nodes, tc.parts, tc.jobs, tc.hops, lookahead)
			ref.eng = &Engine{}
			ref.inject()
			for ref.eng.Step() {
			}
			want := ref.digest(t)

			for _, workers := range []int{0, 1, 2, 7} {
				n := buildFlowNet(seed, tc.nodes, tc.parts, tc.jobs, tc.hops, lookahead)
				n.pe = NewParallel(tc.parts, lookahead)
				n.pe.SetWorkers(workers)
				n.inject()
				n.pe.Run()
				if got := n.digest(t); got != want {
					t.Fatalf("seed %d nodes=%d parts=%d workers=%d: digest %x != golden %x",
						seed, tc.nodes, tc.parts, workers, got, want)
				}
			}
		}
	}
}

// TestParallelSinglePartitionBitIdentical pins the degenerate path: a
// 1-partition ParallelEngine must reproduce the plain engine's event
// sequence exactly (same fire times, same order).
func TestParallelSinglePartitionBitIdentical(t *testing.T) {
	record := func(schedule func(delay float64, fn func(any), arg any), run func() float64) []float64 {
		r := rng.New(99)
		type cell struct{ t float64 }
		var log []float64
		fn := func(arg any) { log = append(log, arg.(*cell).t) }
		for i := 0; i < 200; i++ {
			c := &cell{t: r.Float64() * 10}
			schedule(c.t, fn, c)
		}
		run()
		return log
	}
	var plain Engine
	wantLog := record(func(d float64, fn func(any), arg any) { plain.ScheduleArg(d, fn, arg) }, func() float64 {
		for plain.Step() {
		}
		return plain.Now()
	})

	pe := NewParallel(1, 0)
	p := pe.Part(0)
	gotLog := record(func(d float64, fn func(any), arg any) { p.ScheduleArg(d, fn, arg) }, pe.Run)

	if len(wantLog) != len(gotLog) {
		t.Fatalf("fired %d events, want %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if wantLog[i] != gotLog[i] {
			t.Fatalf("event %d fired with payload %v, want %v", i, gotLog[i], wantLog[i])
		}
	}
}

// TestParallelRunUntil pins the bounded-run contract: events at or
// before the bound fire (including cross-partition deliveries landing
// exactly on it), later ones stay queued, and every partition clock
// parks at the bound.
func TestParallelRunUntil(t *testing.T) {
	pe := NewParallel(2, 1.0)
	pe.SetWorkers(1)
	var log []string
	a, b := pe.Part(0), pe.Part(1)
	a.Schedule(0.5, func() { log = append(log, "a@0.5") })
	// Fires at 2.0 on partition 1 via a cross send raised at t=0.5+...
	a.Schedule(1.0, func() {
		a.Send(1, 1.0, func(any) { log = append(log, "b@2.0") }, nil)
	})
	b.Schedule(3.5, func() { log = append(log, "b@3.5") })

	pe.RunUntil(2.0)
	if got := len(log); got != 2 || log[0] != "a@0.5" || log[1] != "b@2.0" {
		t.Fatalf("RunUntil(2) fired %v, want [a@0.5 b@2.0]", log)
	}
	if a.Now() != 2.0 || b.Now() != 2.0 || pe.Now() != 2.0 {
		t.Fatalf("clocks at (%v, %v, %v), want 2.0", a.Now(), b.Now(), pe.Now())
	}
	pe.Run()
	if got := len(log); got != 3 || log[2] != "b@3.5" {
		t.Fatalf("Run fired %v, want trailing b@3.5", log)
	}
}

// TestSendValidation pins the Send API contract: below-lookahead
// cross-partition sends and invalid destinations panic; self-sends
// take the local path with no lookahead floor.
func TestSendValidation(t *testing.T) {
	pe := NewParallel(2, 0.5)
	s := pe.Part(0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("below-lookahead send", func() { s.Send(1, 0.1, func(any) {}, nil) })
	mustPanic("invalid partition", func() { s.Send(7, 1.0, func(any) {}, nil) })
	mustPanic("nil callback", func() { s.Send(1, 1.0, nil, nil) })

	ran := false
	s.Send(0, 0.01, func(any) { ran = true }, nil) // self-send below lookahead: fine
	pe.Run()
	if !ran {
		t.Fatal("self-send did not fire")
	}
}

// TestParallelSetupSends pins that Sends staged before Run (during
// scenario setup) are delivered by the first window exchange.
func TestParallelSetupSends(t *testing.T) {
	pe := NewParallel(3, 0.2)
	got := 0
	pe.Part(0).Send(2, 0.3, func(any) { got++ }, nil)
	pe.Part(1).Send(2, 0.25, func(any) { got++ }, nil)
	pe.Run()
	if got != 2 {
		t.Fatalf("delivered %d setup sends, want 2", got)
	}
}
