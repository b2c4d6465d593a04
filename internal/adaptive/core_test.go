package adaptive

import (
	"fmt"
	"math"
	"testing"
)

// stubSub is a scriptable substrate: one struct implements Sensor,
// Actuator, and Clock so the core loop can be exercised without a
// simulator or goroutine runtime behind it.
type stubSub struct {
	loads     []float64
	obs       float64 // observed throughput
	slow      []float64
	reference float64
	hyst      float64
	proposal  *Proposal
	searched  bool
	applied   int
	sampled   int
	lastMode  LoadMode
	unchanged bool // Apply reports that nothing moved

	ticks []func(now float64)
}

type stubPlacement string

func (s stubPlacement) String() string { return string(s) }

func (s *stubSub) Sample(now float64) { s.sampled++ }
func (s *stubSub) Loads(mode LoadMode, now float64) []float64 {
	s.lastMode = mode
	return s.loads
}
func (s *stubSub) Throughput(window, now float64) float64 { return s.obs }
func (s *stubSub) Slowdowns() []float64                   { return s.slow }

func (s *stubSub) Expected(loads []float64) (float64, float64) { return s.reference, s.hyst }
func (s *stubSub) Propose(loads []float64) (*Proposal, bool)   { return s.proposal, s.searched }
func (s *stubSub) Apply(p *Proposal) Actuation {
	s.applied++
	if s.unchanged {
		return Actuation{}
	}
	return Actuation{Changed: true, Moved: 1}
}

func (s *stubSub) Tick(interval float64, fn func(now float64)) func() {
	s.ticks = append(s.ticks, fn)
	return func() { s.ticks = nil }
}

// fire delivers one tick at time now.
func (s *stubSub) fire(now float64) {
	for _, fn := range s.ticks {
		fn(now)
	}
}

func newStub() *stubSub {
	return &stubSub{
		obs:       math.NaN(),
		reference: 10, hyst: 10,
		searched: true,
		proposal: &Proposal{From: stubPlacement("a"), To: stubPlacement("b"), Predicted: 20},
	}
}

func mustNew(t *testing.T, s *stubSub, cfg Config) *Controller {
	t.Helper()
	c, err := New(s, s, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStaticInstallsNoTick(t *testing.T) {
	s := newStub()
	c := mustNew(t, s, Config{Policy: PolicyStatic})
	c.Start()
	if len(s.ticks) != 0 {
		t.Fatal("static policy armed the clock")
	}
	c.Stop()
}

func TestPeriodicSearchesEveryTick(t *testing.T) {
	s := newStub()
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	c.Start() // a second Start keeps the one ticker
	if len(s.ticks) != 1 {
		t.Fatalf("%d tickers armed", len(s.ticks))
	}
	s.fire(1)
	s.fire(2)
	st := c.Stats()
	if st.Ticks != 2 || st.Searches != 2 || st.Remaps != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if s.sampled != 2 {
		t.Fatalf("sampled %d times", s.sampled)
	}
	if len(st.Events) != 2 || st.Events[0].From.String() != "a" || st.Events[0].To.String() != "b" {
		t.Fatalf("events: %+v", st.Events)
	}
}

// An actuation that moves nothing is not a remap.
func TestUnchangedActuationIsNoRemap(t *testing.T) {
	s := newStub()
	s.unchanged = true
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	s.fire(1)
	if st := c.Stats(); s.applied != 1 || st.Remaps != 0 || len(st.Events) != 0 {
		t.Fatalf("applied %d, stats %+v", s.applied, st)
	}
}

func TestHysteresisBlocksMarginalGain(t *testing.T) {
	s := newStub()
	s.proposal.Predicted = 10.5 // < 1.15 × 10
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	s.fire(1)
	if st := c.Stats(); st.Searches != 1 || st.Remaps != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCooldownSuppressesSearch(t *testing.T) {
	s := newStub()
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1, Cooldown: 5})
	c.Start()
	s.fire(1) // remap at t=1
	s.fire(2) // inside cooldown
	s.fire(7) // cooldown expired
	if st := c.Stats(); st.Remaps != 2 || st.Searches != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReactiveTriggers(t *testing.T) {
	cases := []struct {
		name string
		prep func(s *stubSub)
		want bool
	}{
		{"no signal", func(s *stubSub) {}, false},
		{"healthy", func(s *stubSub) { s.obs = 9.9 }, false},
		{"degraded", func(s *stubSub) { s.obs = 5 }, true}, // < 0.7×10
		{"imbalance", func(s *stubSub) { s.slow = []float64{1, 4} }, true},
		{"balanced", func(s *stubSub) { s.slow = []float64{1, 1.5} }, false},
		{"one-stage imbalance is no signal", func(s *stubSub) { s.slow = []float64{4, math.NaN()} }, false},
	}
	for _, tc := range cases {
		s := newStub()
		tc.prep(s)
		c := mustNew(t, s, Config{Policy: PolicyReactive, Interval: 1})
		c.Start()
		s.fire(1)
		if got := c.Stats().Searches == 1; got != tc.want {
			t.Errorf("%s: searched=%t, want %t", tc.name, got, tc.want)
		}
	}
}

func TestPredictivepromiseTrigger(t *testing.T) {
	s := newStub()
	s.obs = 9.9 // healthy vs reference
	c := mustNew(t, s, Config{Policy: PolicyPredictive, Interval: 1})
	c.Start()
	s.fire(1) // no trigger: healthy, no events yet
	if st := c.Stats(); st.Searches != 0 {
		t.Fatalf("premature search: %+v", st)
	}
	// Degrade so the first remap happens, promising 20.
	s.obs = 5
	s.fire(2)
	if st := c.Stats(); st.Remaps != 1 {
		t.Fatalf("no initial remap: %+v", st)
	}
	// Healthy observation, but the forecast expectation collapses far
	// below the 20 promised: the promise trigger must fire.
	s.obs = math.NaN()
	s.reference = 8 // < 0.7 × 20
	s.proposal = &Proposal{From: stubPlacement("b"), To: stubPlacement("c"), Predicted: 40}
	s.fire(3)
	if st := c.Stats(); st.Searches != 2 {
		t.Fatalf("promise trigger did not fire: %+v", st)
	}
}

func TestFaultBypassesHysteresisAndCooldown(t *testing.T) {
	s := newStub()
	s.proposal.Predicted = 1 // far below any hysteresis bar
	c := mustNew(t, s, Config{Policy: PolicyReactive, Interval: 1, Cooldown: 100})
	c.Start()
	c.Fault(2.5)
	st := c.Stats()
	if st.Remaps != 1 || st.FaultRemaps != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !st.Events[0].Fault || st.Events[0].Time != 2.5 {
		t.Fatalf("event: %+v", st.Events[0])
	}
}

func TestNoSearchWhenSubstrateCannotPlan(t *testing.T) {
	s := newStub()
	s.searched = false
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	s.fire(1)
	if st := c.Stats(); st.Searches != 0 || st.Remaps != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNilProposalCountsAsSearch(t *testing.T) {
	s := newStub()
	s.proposal = nil
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	s.fire(1)
	if st := c.Stats(); st.Searches != 1 || st.Remaps != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLoadModePerPolicy(t *testing.T) {
	want := map[Policy]LoadMode{
		PolicyPeriodic:   LoadLast,
		PolicyReactive:   LoadLast,
		PolicyPredictive: LoadPredicted,
		PolicyOracle:     LoadOracle,
	}
	for pol, mode := range want {
		s := newStub()
		c := mustNew(t, s, Config{Policy: pol, Interval: 1})
		c.Start()
		s.fire(1)
		if s.lastMode != mode {
			t.Errorf("%v: mode %v, want %v", pol, s.lastMode, mode)
		}
	}
}

func TestStatsIsolatedCopy(t *testing.T) {
	s := newStub()
	c := mustNew(t, s, Config{Policy: PolicyPeriodic, Interval: 1})
	c.Start()
	s.fire(1)
	st := c.Stats()
	st.Events[0].Time = -1
	if c.Stats().Events[0].Time == -1 {
		t.Fatal("Stats returned a shared slice")
	}
}

func TestNewRejectsNilParts(t *testing.T) {
	s := newStub()
	if _, err := New(nil, s, s, Config{}); err == nil {
		t.Fatal("nil sensor accepted")
	}
	if _, err := New(s, nil, s, Config{}); err == nil {
		t.Fatal("nil actuator accepted")
	}
	if _, err := New(s, s, nil, Config{}); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyStatic:     "static",
		PolicyPeriodic:   "periodic",
		PolicyReactive:   "reactive",
		PolicyPredictive: "predictive",
		PolicyOracle:     "oracle",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
		rt, err := ParsePolicy(s)
		if err != nil || rt != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, rt, err)
		}
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy should render")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy parsed")
	}
	if len(Policies()) != 5 {
		t.Errorf("Policies() = %v", Policies())
	}
}

func TestPolicyStringRoundTripsThroughFmt(t *testing.T) {
	if got := fmt.Sprintf("%v", PolicyReactive); got != "reactive" {
		t.Fatalf("fmt rendering = %q", got)
	}
}
