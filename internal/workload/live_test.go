package workload

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/conc/steal"
)

// fastLive keeps the wall-clock cost of a live test run tiny.
func fastLive(items int) LiveOptions {
	return LiveOptions{
		Items:        items,
		MaxWorkers:   8,
		Scale:        0.0005,
		Victim:       Auto,
		InjectAtItem: Auto,
	}
}

// Victim: 0 must target the first stage — before the Auto sentinel,
// zero meant "unset" and stage 0 could never be spiked.
func TestRunLiveVictimZeroTargetsFirstStage(t *testing.T) {
	app := Genome() // heaviest stage is align (index 1), not 0
	opts := fastLive(60)
	opts.SpikeLoad = 0.5
	opts.Victim = 0
	out, err := RunLive(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Victim != 0 {
		t.Fatalf("Victim: 0 hit stage %d, want stage 0", out.Victim)
	}
}

func TestRunLiveAutoVictimPicksHeaviest(t *testing.T) {
	app := Genome()
	opts := fastLive(60)
	opts.SpikeLoad = 0.5
	out, err := RunLive(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := heaviestStage(app); out.Victim != want {
		t.Fatalf("Auto victim hit stage %d, want heaviest %d", out.Victim, want)
	}
}

// InjectAtItem: 0 injects before the first completion: the whole run
// executes under load, so there is no pre-injection throughput split.
func TestRunLiveInjectAtItemZero(t *testing.T) {
	opts := fastLive(60)
	opts.SpikeLoad = 0.5
	opts.Victim = 0
	opts.InjectAtItem = 0
	out, err := RunLive(Genome(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Items != 60 {
		t.Fatalf("completed %d of 60", out.Items)
	}
	if out.ThroughputBefore != 0 {
		t.Errorf("pre-injection throughput %v for injection at item 0", out.ThroughputBefore)
	}
	if out.ThroughputUnder <= 0 {
		t.Errorf("under-load throughput %v", out.ThroughputUnder)
	}
}

// TestRunLiveOptions runs RunLive's option checks and its batch paths
// at fastLive size. After every run, erroring or not, the goroutine
// count is back where it started.
func TestRunLiveOptions(t *testing.T) {
	steal.Default() // the executor's persistent workers are part of the baseline
	cases := []struct {
		name    string
		app     App // unnamed: Genome
		set     func(*LiveOptions)
		wantErr string // substring of the expected error; "" = must succeed
		check   func(*testing.T, LiveOutcome)
	}{
		{name: "victim out of range", wantErr: "victim",
			set: func(o *LiveOptions) { o.SpikeLoad = 0.5; o.Victim = 99 }},
		{name: "injection at the end of the stream", wantErr: "injection",
			set: func(o *LiveOptions) { o.SpikeLoad = 0.5; o.InjectAtItem = o.Items }},
		{name: "empty app", wantErr: "no stages", app: App{Name: "empty"},
			set: func(o *LiveOptions) { o.Victim = Auto; o.InjectAtItem = Auto }},
		{name: "auto batch under static", wantErr: "non-static",
			set: func(o *LiveOptions) { o.Batch = Auto }},
		{name: "negative batch", wantErr: "grain",
			set: func(o *LiveOptions) { o.Batch = -2 }},
		{name: "adaptive over no replicable stage", wantErr: "replicable", app: fixedGenome(),
			set: func(o *LiveOptions) { o.Policy = adaptive.PolicyReactive }},
		{name: "auto batch under reactive",
			set: func(o *LiveOptions) { o.Policy = adaptive.PolicyReactive; o.Batch = Auto },
			check: func(t *testing.T, out LiveOutcome) {
				if out.Grain < 1 {
					t.Errorf("grain %d, want the walker's grain (≥ 1)", out.Grain)
				}
			}},
		{name: "fixed batch",
			set: func(o *LiveOptions) { o.Batch = 4 },
			check: func(t *testing.T, out LiveOutcome) {
				if out.Grain != 4 {
					t.Errorf("grain %d, want 4", out.Grain)
				}
			}},
		{name: "negative spike",
			set: func(o *LiveOptions) { o.SpikeLoad = -1 },
			check: func(t *testing.T, out LiveOutcome) {
				if out.Victim != -1 || out.ThroughputUnder != 0 {
					t.Errorf("victim %d, under-load throughput %v: a negative spike is no spike", out.Victim, out.ThroughputUnder)
				}
			}},
		{name: "static deploys half the budget",
			set: func(o *LiveOptions) { o.Policy = adaptive.PolicyStatic },
			check: func(t *testing.T, out LiveOutcome) {
				// Flooring each share at one worker would deploy [1 3 1] here.
				if sum := out.Replicas[0] + out.Replicas[1] + out.Replicas[2]; sum != 4 {
					t.Errorf("deployed %v (%d workers), want half of MaxWorkers 8", out.Replicas, sum)
				}
			}},
		{name: "background load",
			set: func(o *LiveOptions) { o.BgLoad = 1 },
			check: func(t *testing.T, out LiveOutcome) {
				if out.ThroughputUnder <= 0 {
					t.Errorf("under-load throughput %v after the hogs started", out.ThroughputUnder)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			opts := fastLive(60)
			c.set(&opts)
			app := c.app
			if app.Name == "" {
				app = Genome()
			}
			out, err := RunLive(app, opts)
			switch {
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one naming %q", err, c.wantErr)
			case c.wantErr == "" && err != nil:
				t.Fatal(err)
			case c.wantErr == "":
				if out.Items != 60 {
					t.Errorf("completed %d of 60", out.Items)
				}
				c.check(t, out)
			}
			waitGoroutines(t, before)
		})
	}
}

// fixedGenome is the genome app with no stage replicable.
func fixedGenome() App {
	app := Genome()
	app.Spec.Stages = slices.Clone(app.Spec.Stages)
	for i := range app.Spec.Stages {
		app.Spec.Stages[i].Replicable = false
	}
	return app
}

// TestBackgroundLoadRunsPairs: an odd hog count rounds up to whole
// ping-pong pairs, and stop waits for every hog to exit.
func TestBackgroundLoadRunsPairs(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := BackgroundLoad(1)
	if got := runtime.NumGoroutine() - before; got != 2 {
		t.Errorf("BackgroundLoad(1) started %d goroutines, want one pair", got)
	}
	stop()
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless, within two seconds, no more
// goroutines are alive than before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before", runtime.NumGoroutine(), before)
		}
	}
}
