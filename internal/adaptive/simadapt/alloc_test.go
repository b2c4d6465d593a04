package simadapt

import (
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
)

// handClock hands the controller's tick to the test instead of
// scheduling it.
type handClock struct{ tick func(now float64) }

func (c *handClock) Tick(_ float64, fn func(now float64)) func() {
	c.tick = fn
	return func() {}
}

// A tick that does not search allocates nothing. It samples every node
// sensor, which feeds the forecaster battery (the sliding median and
// AR(1) predict over copies they own); it reads the load vector into a
// reused buffer; and it rates the current mapping through a held model
// scratch, reading the mapping without a copy. Every adaptive replay
// pays a tick per interval, so an allocation here is a GC bill on every
// simulated run.
func TestTickZeroAlloc(t *testing.T) {
	for _, p := range []adaptive.Policy{adaptive.PolicyReactive, adaptive.PolicyPredictive} {
		t.Run(p.String(), func(t *testing.T) {
			g := spikeGrid(t, 1e9) // the step never comes: nothing to react to
			spec := model.Balanced(2, 0.1, 100)
			eng := &sim.Engine{}
			ex, err := exec.New(eng, g, spec, model.OneToOne(2), exec.Options{MaxInFlight: 8})
			if err != nil {
				t.Fatal(err)
			}
			ex.RunUntil(30) // fill the service and completion windows
			var clk handClock
			c, err := newController(g, ex, spec, Config{Policy: p, Interval: 1}, &clk)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			now := eng.Now()
			for i := 0; i < 25; i++ { // fill the forecasters' windows
				clk.tick(now)
			}
			allocs := testing.AllocsPerRun(100, func() { clk.tick(now) })
			if st := c.Stats(); st.Searches != 0 {
				t.Fatalf("a quiet tick searched %d times; the contract is for a tick that does not", st.Searches)
			}
			if allocs != 0 {
				t.Fatalf("one controller tick allocates %v times, want 0", allocs)
			}
		})
	}
}
