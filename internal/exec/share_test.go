package exec

import (
	"math"
	"reflect"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
	"gridpipe/internal/trace"
)

// oneStageSpec is a single unit-work stage with no transfer costs.
func oneStageSpec() model.PipelineSpec {
	return model.PipelineSpec{
		Stages: []model.StageSpec{{Name: "s", Work: 1}},
	}
}

// TestShareSingleTenantIdentical pins the degenerate case: one
// executor attached to a NodeShares behaves exactly like one without —
// a lone tenant never exceeds the node's cores, so its share is always
// 1 and no rescale ever fires.
func TestShareSingleTenantIdentical(t *testing.T) {
	run := func(share bool) float64 {
		g, err := grid.Homogeneous(2, 1, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		eng := &sim.Engine{}
		opts := Options{MaxInFlight: 2}
		if share {
			opts.Share = NewNodeShares(g)
		}
		ex, err := New(eng, g, oneStageSpec(), model.FromNodes(0), opts)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := ex.RunItems(10)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	plain, shared := run(false), run(true)
	if plain != shared {
		t.Fatalf("single-tenant makespan diverged: plain=%v shared=%v", plain, shared)
	}
}

// TestShareTwoTenantsHalveCapacity pins the proportional-sharing
// model: two executors pushing one-stage unit-work items through the
// same 1-core node each progress at half speed, so both finish in
// twice the solo time.
func TestShareTwoTenantsHalveCapacity(t *testing.T) {
	g, err := grid.Homogeneous(1, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	sh := NewNodeShares(g)
	mk := func() *Executor {
		ex, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
			MaxInFlight: 1, TotalItems: 5, Share: sh,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	a, b := mk(), mk()
	a.Start()
	b.Start()
	for eng.Step() {
	}
	if a.Done() != 5 || b.Done() != 5 {
		t.Fatalf("done=%d/%d, want 5/5", a.Done(), b.Done())
	}
	// 10 unit-work items through one speed-1 core: exactly 10 seconds,
	// not 5 — the tenants shared, they did not each get a full node.
	if got := eng.Now(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("two tenants × 5 unit items on one core ended at t=%v, want 10", got)
	}
}

// TestShareRescaleBanksProgress pins the mid-service rescale: a task
// half-done at full speed when a second tenant arrives finishes the
// remaining half at half speed.
func TestShareRescaleBanksProgress(t *testing.T) {
	g, err := grid.Homogeneous(1, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	sh := NewNodeShares(g)
	a, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
		MaxInFlight: 1, TotalItems: 1, Share: sh,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(eng, g, oneStageSpec(), model.FromNodes(0), Options{
		MaxInFlight: 1, TotalItems: 1, Share: sh,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start() // a's item starts service at t=0 under share 1
	eng.RunUntil(0.5)
	b.Start() // b arrives mid-service: both drop to share 1/2
	for eng.Step() {
	}
	// a: 0.5 work banked by t=0.5, 0.5 left at half speed → t=1.5.
	// b: 1.0 work at half speed from 0.5 → rescaled to full speed when
	// a leaves at 1.5 (0.5 work left) → t=2.0.
	lats := a.Latencies()
	if len(lats) != 1 || math.Abs(lats[0]-1.5) > 1e-9 {
		t.Fatalf("tenant a latency %v, want 1.5 (half the work at half speed)", lats)
	}
	if got := eng.Now(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("run ended at t=%v, want 2.0", got)
	}
}

// refLedger is the reference evaluator for the ledger's rescale: the
// loop NodeShares ran before it kept per-node serving lists — every
// tenant ever attached, finished ones included, on every share change —
// driving a bare processor-sharing model of one node (one-stage
// tenants, no transfers, window ≤ cores so nothing queues). It repeats
// the ledger's float operations in the ledger's order, so completion
// times compare exactly.
type refLedger struct {
	eng     *sim.Engine
	node    *grid.Node
	tenants []*refTenant // attach order, never pruned
	count   int
}

type refTenant struct {
	l         *refLedger
	work      float64
	window    int
	left      int // items not yet started
	inService []*refTask
	done      []float64 // completion times
}

type refTask struct {
	tn               *refTenant
	idx              int
	rem, lastT, mult float64
	ev               sim.Event
}

func (l *refLedger) mult() float64 {
	if l.count <= l.node.Cores {
		return 1
	}
	return float64(l.node.Cores) / float64(l.count)
}

func (l *refLedger) rescale(now float64) {
	mult := l.mult()
	for _, tn := range l.tenants {
		for _, t := range tn.inService {
			if t.mult == mult {
				continue
			}
			t.rem -= t.mult * l.node.WorkIn(t.lastT, now-t.lastT)
			if t.rem < 0 {
				t.rem = 0
			}
			t.lastT, t.mult = now, mult
			t.ev.Cancel()
			t.ev = l.eng.ScheduleArg(l.node.ServiceDuration(t.rem/mult, now), refFinish, t)
		}
	}
}

func (tn *refTenant) start() {
	l, now := tn.l, tn.l.eng.Now()
	tn.left--
	l.count++
	if l.count > l.node.Cores {
		l.rescale(now)
	}
	t := &refTask{tn: tn, idx: len(tn.inService), rem: tn.work, lastT: now, mult: l.mult()}
	tn.inService = append(tn.inService, t)
	t.ev = l.eng.ScheduleArg(l.node.ServiceDuration(tn.work/t.mult, now), refFinish, t)
}

func refFinish(arg any) {
	t := arg.(*refTask)
	tn, l := t.tn, t.tn.l
	last := len(tn.inService) - 1
	tn.inService[t.idx] = tn.inService[last]
	tn.inService[t.idx].idx = t.idx
	tn.inService = tn.inService[:last]
	over := l.count > l.node.Cores
	l.count--
	if over {
		l.rescale(l.eng.Now())
	}
	tn.done = append(tn.done, l.eng.Now())
	if tn.left > 0 {
		tn.start()
	}
}

// TestShareRescaleMatchesAllExecutorsLoop runs three tenants through
// one loaded 2-core node — the middle one finishes while the other two
// are mid-service — and checks every completion time, bit for bit,
// against the reference evaluator's. After every event the ledger's
// serving list must name exactly the executors with a task in service,
// in attach order, so it drops the finished tenant and ends empty.
func TestShareRescaleMatchesAllExecutorsLoop(t *testing.T) {
	type tenant struct {
		work, startAt float64
		items, window int
	}
	tenants := []tenant{
		{work: 1.0, startAt: 0, items: 6, window: 2},
		{work: 0.4, startAt: 0.3, items: 2, window: 1}, // done by t≈2, the others run to t≈10
		{work: 0.9, startAt: 0.5, items: 5, window: 2},
	}
	newGrid := func() *grid.Grid {
		n := &grid.Node{Name: "n", Speed: 1, Cores: 2,
			Load: trace.NewSteps(0, trace.StepChange{T: 1.1, Load: 0.5}, trace.StepChange{T: 4.2, Load: 0.1})}
		g, err := grid.NewGrid(grid.LANLink, n)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	g, eng := newGrid(), &sim.Engine{}
	sh := NewNodeShares(g)
	got := make([][]float64, len(tenants))
	execs := make([]*Executor, len(tenants))
	for i, tn := range tenants {
		i := i
		spec := model.PipelineSpec{Stages: []model.StageSpec{{Name: "s", Work: tn.work}}}
		ex, err := New(eng, g, spec, model.FromNodes(0), Options{MaxInFlight: tn.window, TotalItems: tn.items, Share: sh})
		if err != nil {
			t.Fatal(err)
		}
		ex.SetItemHooks(func(int) { got[i] = append(got[i], eng.Now()) }, nil)
		eng.At(tn.startAt, ex.Start)
		execs[i] = ex
	}
	sawMiddleGone := false
	for eng.Step() {
		// The serving list is what the all-executors loop would have
		// found work on, in the same (attach) order.
		want := []*Executor{}
		for _, e := range execs {
			if len(e.nodes[0].inService) > 0 {
				want = append(want, e)
			}
		}
		if got := sh.Serving(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%v: serving list has %d executors, want the %d with a task in service, in attach order",
				eng.Now(), len(got), len(want))
		}
		if execs[1].Done() == tenants[1].items && len(want) == 2 {
			sawMiddleGone = true
		}
	}
	if !sawMiddleGone {
		t.Fatal("the middle tenant never finished while the others were in service")
	}
	if n := len(sh.Serving(0)); n != 0 || sh.InService(0) != 0 {
		t.Fatalf("after the run the ledger holds %d servers, %d tasks; want 0, 0", n, sh.InService(0))
	}

	ref := &refLedger{eng: &sim.Engine{}, node: newGrid().Node(0)}
	for _, tn := range tenants {
		rt := &refTenant{l: ref, work: tn.work, window: tn.window, left: tn.items}
		ref.tenants = append(ref.tenants, rt)
		ref.eng.At(tn.startAt, func() {
			for i := 0; i < rt.window && rt.left > 0; i++ {
				rt.start()
			}
		})
	}
	for ref.eng.Step() {
	}
	for i, rt := range ref.tenants {
		if len(got[i]) != tenants[i].items || len(rt.done) != tenants[i].items {
			t.Fatalf("tenant %d: %d completions, reference %d, want %d", i, len(got[i]), len(rt.done), tenants[i].items)
		}
		for k := range rt.done {
			if got[i][k] != rt.done[k] {
				t.Errorf("tenant %d item %d completed at %v, reference %v", i, k, got[i][k], rt.done[k])
			}
		}
	}
}
