package grid

import (
	"math"
	"strings"
	"testing"

	"gridpipe/internal/trace"
)

func TestTraceSpecBuildAllKinds(t *testing.T) {
	cases := []struct {
		name string
		spec TraceSpec
	}{
		{"default", TraceSpec{}},
		{"constant", TraceSpec{Kind: "constant", Load: 0.3}},
		{"steps", TraceSpec{Kind: "steps", Initial: 0.1, Changes: []TraceSpecStep{{T: 5, Load: 0.5}}}},
		{"ramp", TraceSpec{Kind: "ramp", T0: 0, T1: 10, From: 0, To: 0.5}},
		{"sine", TraceSpec{Kind: "sine", Base: 0.4, Amp: 0.2, Period: 60}},
		{"walk", TraceSpec{Kind: "walk", Horizon: 100, Dt: 1, Mean: 0.3, Sigma: 0.05, Theta: 0.2, Seed: 1}},
		{"burst", TraceSpec{Kind: "burst", Horizon: 100, Dt: 1, Base: 0.1, Burst: 0.5, OffMean: 10, OnMean: 5, Seed: 2}},
	}
	for _, c := range cases {
		tr, err := c.spec.Build()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for i := 0; i <= 1000; i++ {
			at := 100 * float64(i) / 1000
			if v := tr.At(at); v < 0 || v > trace.MaxLoad || math.IsNaN(v) {
				t.Errorf("%s: built trace reads %v at t=%v, outside [0, %v]", c.name, v, at, trace.MaxLoad)
				break
			}
		}
	}
}

func TestTraceSpecBuildErrors(t *testing.T) {
	bad := []TraceSpec{
		{Kind: "nope"},
		{Kind: "walk"},                                  // missing horizon/dt
		{Kind: "burst", Horizon: 10, Dt: 1},             // missing means
		{Kind: "burst", Horizon: 10, Dt: 1, OffMean: 1}, // missing onMean
	}
	for i, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConfigBuild(t *testing.T) {
	in := `{
		"defaultLink": {"latency": 0.001, "bandwidth": 1e7},
		"nodes": [
			{"name": "a", "speed": 1},
			{"name": "b", "speed": 2, "cores": 4, "load": {"kind": "constant", "load": 0.25}},
			{"name": "c", "speed": 0.5}
		],
		"links": [
			{"a": "a", "b": "c", "latency": 0.05, "bandwidth": 1e6}
		]
	}`
	cfg, err := LoadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	b := g.NodeByName("b")
	if b.Cores != 4 || b.EffectiveSpeed(0) != 1.5 {
		t.Fatalf("node b wrong: cores=%d speed=%v", b.Cores, b.EffectiveSpeed(0))
	}
	if g.NodeByName("a").Cores != 1 {
		t.Fatal("default cores should be 1")
	}
	a, c := g.NodeByName("a"), g.NodeByName("c")
	if g.Link(a.ID, c.ID).Latency != 0.05 {
		t.Fatal("link override not applied")
	}
	if g.Link(a.ID, b.ID).Latency != 0.001 {
		t.Fatal("default link not applied")
	}
}

func TestConfigBuildErrors(t *testing.T) {
	cases := []string{
		`{"nodes": []}`,
		`{"nodes": [{"name":"a","speed":1}], "links":[{"a":"a","b":"zz","latency":1,"bandwidth":1}]}`,
		`{"nodes": [{"name":"a","speed":1,"load":{"kind":"bogus"}}]}`,
		`{"nodes": [{"name":"a","speed":-1}]}`,
		`{"nodes": [{"name":"a","speed":1},{"name":"b","speed":1}], "links":[{"a":"a","b":"b","latency":1,"bandwidth":0}]}`,
	}
	for i, in := range cases {
		cfg, err := LoadConfig(strings.NewReader(in))
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := cfg.Build(); err == nil {
			t.Errorf("case %d: expected build error", i)
		}
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field should be rejected")
	}
}

func TestConfigDefaultLinkFallback(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"nodes":[{"name":"a","speed":1},{"name":"b","speed":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Link(0, 1).Bandwidth != LANLink.Bandwidth {
		t.Fatal("missing default link should fall back to LAN")
	}
}
