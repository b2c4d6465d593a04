package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
)

// lognormalSampler draws a lognormal demand with cv 0.25 around each
// stage's spec work from a private stream per (stage, seq), the way
// workload.App.Sampler does.
func lognormalSampler(spec model.PipelineSpec, seed uint64) func(stage, seq int) float64 {
	sigma2 := math.Log(1 + 0.25*0.25)
	sigma := math.Sqrt(sigma2)
	mu := make([]float64, spec.NumStages())
	for i, st := range spec.Stages {
		mu[i] = math.Log(st.Work) - sigma2/2
	}
	root := rng.New(seed)
	return func(stage, seq int) float64 {
		return root.Derive(rng.SeedFor(uint64(stage), uint64(seq))).LogNormal(mu[stage], sigma)
	}
}

// checkServedRows checks that each completed service ran on exactly the
// demand a direct sampler call gives, bit for bit, and returns the
// per-(seq, stage) service counts, keyed seq*stages+stage.
func checkServedRows(t *testing.T, e *Executor, sampler func(stage, seq int) float64) map[int]int {
	served := map[int]int{}
	ns := e.spec.NumStages()
	onService(e, func(tk *task) {
		seq, stage := tk.it.seq, tk.stage
		if got, want := tk.it.work[stage], sampler(stage, seq); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("seq %d stage %d served demand %v, sampler gives %v", seq, stage, got, want)
		}
		served[seq*ns+stage]++
	})
	return served
}

// waitGoroutines polls until the goroutine count is back to base: a
// helper left when a run ends finishes its one block and exits.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the run, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestDemandRowsMatchSampler: whoever draws a row — the event loop or a
// helper, for runs below, at and just past a block edge and over
// several blocks, bounded or open-loop — every item is served on the
// demands the sampler gives for its (stage, seq), each service once,
// and no helper outlives the run by more than its block's draw.
func TestDemandRowsMatchSampler(t *testing.T) {
	for stages := 1; stages <= 5; stages++ {
		spec := model.Balanced(stages, 0.01, 0)
		g, err := grid.Homogeneous(stages, 1, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		sampler := lognormalSampler(spec, uint64(stages))
		for _, items := range []int{1, 255, 256, 257, 1000, 0} {
			name := fmt.Sprintf("stages=%d/items=%d", stages, items)
			base := runtime.NumGoroutine()
			e, err := New(&sim.Engine{}, g, spec, model.OneToOne(stages), Options{WorkSampler: sampler})
			if err != nil {
				t.Fatal(err)
			}
			served := checkServedRows(t, e, sampler)
			if items > 0 {
				if _, err := e.RunItems(items); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				items = e.RunUntil(20) // open loop: ~2 000 items, completed in seq order
				if items < 1000 {
					t.Fatalf("%s: only %d items by t=20", name, items)
				}
			}
			for seq := 0; seq < items; seq++ {
				for stage := 0; stage < stages; stage++ {
					if n := served[seq*stages+stage]; n != 1 {
						t.Fatalf("%s: seq %d stage %d served %d times", name, seq, stage, n)
					}
				}
			}
			waitGoroutines(t, base)
		}
	}
}

// A sampler fault inside a block a helper draws — a panic, or a
// negative demand — surfaces on the goroutine that called RunItems,
// when the loop admits the very item whose row faulted: the rows before
// it in the block are used as drawn.
func TestDemandFaultInHelperReachesRunItems(t *testing.T) {
	const bad = 300 // in block 1, which a helper draws while the loop runs block 0
	for _, tc := range []struct {
		name   string
		sample func(stage, seq int) float64
		want   string
	}{
		{"panic", func(stage, seq int) float64 {
			if seq == bad {
				panic("sampler failed at 300")
			}
			return 0.01
		}, "sampler failed at 300"},
		{"negative", func(stage, seq int) float64 {
			if seq == bad {
				return -1
			}
			return 0.01
		}, "exec: work sampler returned -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			g := het(t, 1, 1)
			_, e := newExec(t, g, model.Balanced(2, 0.01, 0), model.OneToOne(2), Options{WorkSampler: tc.sample})
			// Hold the loop at the first completion until the helper for
			// block 1 has drawn it, so the fault is the helper's.
			e.SetItemHooks(func(seq int) {
				if seq != 0 {
					return
				}
				for e.demand.helping.Load() {
					runtime.Gosched()
				}
				if s := &e.demand.slots[1]; !s.drawn || s.n != bad-demandBlock {
					t.Errorf("block 1 not drawn by the helper up to seq %d (drawn %v, %d rows)", bad, s.drawn, s.n)
				}
			}, nil)
			got := func() (v any) {
				defer func() { v = recover() }()
				e.RunItems(1000)
				return nil
			}()
			if got != tc.want {
				t.Fatalf("RunItems panicked with %v, want %q", got, tc.want)
			}
			if e.admitted != bad {
				t.Fatalf("panic after %d admissions, want %d", e.admitted, bad)
			}
			waitGoroutines(t, base)
		})
	}
}
