package monitor

import (
	"math"
	"testing"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/forecast"
	"gridpipe/internal/grid"
	"gridpipe/internal/trace"
)

func TestStageMonitorServiceAndThroughput(t *testing.T) {
	m := NewStageMonitor(8)
	if !math.IsNaN(m.MeanService()) || !math.IsNaN(m.Throughput()) {
		t.Fatal("fresh monitor should report NaN")
	}
	// Departures every 2 s with 1.5 s of service.
	for i := 1; i <= 10; i++ {
		m.RecordService(1.5, float64(i)*2)
	}
	if got := m.MeanService(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("MeanService = %v", got)
	}
	if got := m.Throughput(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Throughput = %v, want 0.5", got)
	}
}

func TestStageMonitorWindowEviction(t *testing.T) {
	m := NewStageMonitor(4)
	for i := 0; i < 4; i++ {
		m.RecordService(10, float64(i))
	}
	for i := 4; i < 8; i++ {
		m.RecordService(2, float64(i))
	}
	if got := m.MeanService(); got != 2 {
		t.Fatalf("windowed mean = %v, want 2 (old samples evicted)", got)
	}
}

func TestStageMonitorReset(t *testing.T) {
	m := NewStageMonitor(4)
	m.RecordService(1, 1)
	m.Reset()
	if !math.IsNaN(m.MeanService()) {
		t.Fatal("reset should clear windows")
	}
}

func TestMonitorCompletionsAndRecentThroughput(t *testing.T) {
	m := New(3)
	if m.NumStages() != 3 {
		t.Fatalf("NumStages = %d", m.NumStages())
	}
	for i := 1; i <= 20; i++ {
		m.RecordCompletion(float64(i))
	}
	if got := len(m.Completions()); got != 20 {
		t.Fatalf("%d completions, want 20", got)
	}
	// Items at t=11..20 within window 10 ending at t=20.
	if got := m.RecentThroughput(10, 20); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("RecentThroughput = %v, want 1.0", got)
	}
	if !math.IsNaN(m.RecentThroughput(5, 100)) {
		t.Fatal("stale window should be NaN")
	}
}

func TestResetStages(t *testing.T) {
	m := New(2)
	m.Stage(0).RecordService(1, 1)
	m.Stage(1).RecordService(2, 1)
	m.ResetStages()
	for i := 0; i < 2; i++ {
		if v := m.Stage(i).MeanService(); !math.IsNaN(v) {
			t.Fatalf("stage %d mean service %v after ResetStages, want NaN", i, v)
		}
	}
}

func TestNewPanicsOnZeroStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestRecentThroughputPanicsOnBadWindow(t *testing.T) {
	m := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.RecentThroughput(0, 10)
}

func TestNodeSensor(t *testing.T) {
	n := &grid.Node{Name: "n", Speed: 1, Cores: 1,
		Load: trace.NewSteps(0.2, trace.StepChange{T: 10, Load: 0.8})}
	s := NewNodeSensor(n, forecast.NewDefaultBattery())
	if s.node != n {
		t.Fatal("Node() wrong")
	}
	if !math.IsNaN(s.est.Last()) {
		t.Fatal("unsampled sensor should be NaN")
	}
	if s.PredictedLoad() != 0 {
		t.Fatal("unsampled prediction should fall back to 0")
	}
	for ti := 0; ti < 10; ti++ {
		s.Sample(float64(ti))
	}
	if s.est.Last() != 0.2 {
		t.Fatalf("last load = %v", s.est.Last())
	}
	if got := s.PredictedLoad(); math.Abs(got-0.2) > 0.05 {
		t.Fatalf("PredictedLoad = %v, want ~0.2", got)
	}
	// After the step the forecast should move to the new level.
	for ti := 10; ti < 30; ti++ {
		s.Sample(float64(ti))
	}
	if got := s.PredictedLoad(); math.Abs(got-0.8) > 0.1 {
		t.Fatalf("PredictedLoad after step = %v, want ~0.8", got)
	}
}

func TestNodeSensorIdleNode(t *testing.T) {
	s := NewNodeSensor(&grid.Node{Name: "idle", Speed: 1, Cores: 1}, forecast.NewLastValue())
	s.Sample(5)
	if s.est.Last() != 0 || s.PredictedLoad() != 0 {
		t.Fatal("idle node should sense 0")
	}
}

func TestPredictedLoadClamped(t *testing.T) {
	// A forecaster that overshoots must be clamped to [0, 0.99].
	s := NewNodeSensor(&grid.Node{Name: "x", Speed: 1, Cores: 1}, overshoot{})
	s.Sample(0)
	if got := s.PredictedLoad(); got != 0.99 {
		t.Fatalf("PredictedLoad = %v, want clamp 0.99", got)
	}
}

type overshoot struct{}

func (overshoot) Name() string     { return "overshoot" }
func (overshoot) Observe(float64)  {}
func (overshoot) Predict() float64 { return 5 }

// TestNodeSensorsLoads pins the three load modes of the node bank: last
// measurement (0 before any sample), ground truth at now without
// sampling, and the forecast clamped to [0, 0.99]; and that a reused
// buffer costs no allocation.
func TestNodeSensorsLoads(t *testing.T) {
	g, err := grid.NewGrid(grid.Link{Latency: 0.01, Bandwidth: 1e6},
		&grid.Node{Speed: 1, Cores: 1, Load: trace.NewSteps(0.2, trace.StepChange{T: 10, Load: 0.8})},
		&grid.Node{Speed: 1, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNodeSensors(g, adaptive.LoadLast)
	if len(ns) != 2 || ns[0].node != g.Node(0) || ns[1].node != g.Node(1) {
		t.Fatal("the bank must hold one sensor per node, in node order")
	}
	eq := func(what string, got []float64, want ...float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	eq("LoadLast before any Sample", ns.Loads(nil, adaptive.LoadLast, 0), 0, 0)
	eq("LoadOracle unsampled", ns.Loads(nil, adaptive.LoadOracle, 12), 0.8, 0)
	ns.Sample(3)
	eq("LoadLast after Sample", ns.Loads(nil, adaptive.LoadLast, 12), 0.2, 0)
	eq("LoadOracle after Sample", ns.Loads(nil, adaptive.LoadOracle, 12), 0.8, 0)

	// An overshooting forecast clamps high; an undershooting one low.
	ns[0] = NewNodeSensor(g.Node(0), overshoot{})
	ns[1] = NewNodeSensor(g.Node(1), undershoot{})
	ns.Sample(3)
	eq("LoadPredicted", ns.Loads(nil, adaptive.LoadPredicted, 3), 0.99, 0)

	dst := make([]float64, 0, len(ns))
	for _, mode := range []adaptive.LoadMode{adaptive.LoadLast, adaptive.LoadPredicted, adaptive.LoadOracle} {
		if n := testing.AllocsPerRun(100, func() { dst = ns.Loads(dst, mode, 5) }); n != 0 {
			t.Fatalf("Loads(mode %d) into a reused buffer: %v allocs, want 0", mode, n)
		}
	}
}

// TestForecasterFollowsLoadMode pins the one choice of forecaster:
// only LoadPredicted reads a forecast, so only it feeds the battery;
// every other mode tracks the last measurement. The node bank and the
// estimators liveadapt builds choose alike.
func TestForecasterFollowsLoadMode(t *testing.T) {
	g, err := grid.NewGrid(grid.Link{Latency: 0.01, Bandwidth: 1e6}, &grid.Node{Speed: 1, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []adaptive.LoadMode{adaptive.LoadLast, adaptive.LoadPredicted, adaptive.LoadOracle} {
		want := mode == adaptive.LoadPredicted
		for what, fc := range map[string]forecast.Forecaster{
			"NewEstimator":   NewEstimator(mode).fc,
			"NewNodeSensors": NewNodeSensors(g, mode)[0].est.fc,
		} {
			_, battery := fc.(*forecast.Adaptive)
			_, last := fc.(*forecast.LastValue)
			if battery != want || last == want {
				t.Errorf("%s(mode %d) feeds %s, want the battery only under LoadPredicted", what, mode, fc.Name())
			}
		}
	}
}

type undershoot struct{}

func (undershoot) Name() string     { return "undershoot" }
func (undershoot) Observe(float64)  {}
func (undershoot) Predict() float64 { return -1 }
