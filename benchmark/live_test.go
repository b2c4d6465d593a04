package main

import (
	"math"
	"testing"
	"time"
)

func TestXorshiftPowerIsTheClosedForm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 32, 1000, 24000} {
		m := xorshiftPower(n)
		for _, x := range []uint64{1, 0xdeadbeef, 1 << 63, 0x0123456789abcdef} {
			if got, want := m.apply(x), xorshift(x, n); got != want {
				t.Fatalf("M^%d·%#x = %#x, want %#x", n, x, got, want)
			}
		}
	}
}

// The traced budget of a 1 000-item -quick chain_light must add up to
// the separately measured transit, and every output must pass the
// reference check.
func TestQuickChainLightBudgetSumsToTransit(t *testing.T) {
	r, err := newWorkload("chain_light")
	if err != nil {
		t.Fatal(err)
	}
	w := r.(*closedChain)
	const n = 1000
	w.prepare(7, n)
	tr := newLiveTrace(n, 0)
	rep, err := w.run(n, w.closedLoop(n), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.delivered != n || rep.failed != 0 {
		t.Fatalf("delivered %d of %d, %d failed", rep.delivered, n, rep.failed)
	}
	b := tr.budget()
	if b.Items != n {
		t.Fatalf("budget covers %d items, want %d", b.Items, n)
	}
	if math.Abs(b.sum()-b.Transit) > 0.01*b.Transit {
		t.Errorf("budget %g ns does not sum to transit %g ns", b.sum(), b.Transit)
	}
	if err := checkBudget("chain_light", b); err != nil {
		t.Error(err)
	}
	if b.Busy <= 0 || b.Transit < b.Busy {
		t.Errorf("implausible budget %+v", b)
	}
	if len(rep.sojourn) != n {
		t.Errorf("%d sojourn samples, want one per traced item", len(rep.sojourn))
	}
}

// A wrong output value or a lost item must count as failed.
func TestReferenceCheckCatchesWrongOutputs(t *testing.T) {
	r, err := newWorkload("chain_light")
	if err != nil {
		t.Fatal(err)
	}
	w := r.(*closedChain)
	const n = 200
	w.prepare(3, n)
	w.iters[2]++ // stage s2 now computes something the reference does not expect
	rep, err := w.run(n, w.closedLoop(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != n {
		t.Errorf("%d of %d outputs flagged, want all", rep.failed, n)
	}
}

func TestRepLoopStopsWhenTheNextRepWouldNotFit(t *testing.T) {
	reps := 0
	err := repLoop(35*time.Millisecond, 1, func(int) error {
		reps++
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil || reps < 2 || reps > 3 {
		t.Errorf("%d reps of 10 ms in a 35 ms budget (err %v), want 2 or 3", reps, err)
	}
	reps = 0
	_ = repLoop(0, 2, func(int) error { reps++; return nil })
	if reps != 2 {
		t.Errorf("%d reps with no budget, want the minimum 2", reps)
	}
}
