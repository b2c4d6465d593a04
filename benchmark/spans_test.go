package main

import "testing"

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, TraceID: "a"},
		{Name: "x", Start: 10, End: 30, Parent: "root", TraceID: "a"},
		{Name: "y", Start: 20, End: 50, Parent: "root", TraceID: "a"},  // overlaps x: counted once
		{Name: "z", Start: 90, End: 120, Parent: "root", TraceID: "a"}, // clipped to the parent
		{Name: "leaf", Start: 12, End: 15, Parent: "x", TraceID: "a"},
		{Name: "x", Start: 0, End: 40, Parent: "root", TraceID: "b"}, // another trace: not a's child
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{
		"root": 100 - (40 + 10),
		"x":    (20 - 3) + 40,
		"y":    30,
		"z":    30,
		"leaf": 3,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

// A traced item's children tile its root span, so the root has no self
// time and the children's self times add up to the transit.
func TestLiveItemSpansTileTheRoot(t *testing.T) {
	tr := newLiveTrace(1, 0)
	tr.slots[0] = itemTrace{
		sendStart: 100, sendEnd: 140,
		fnStart: [chainStages]int64{130, 300, 420, 600},
		fnEnd:   [chainStages]int64{200, 400, 500, 650},
		recv:    700,
	}
	var log spanLog
	tr.spans(&log, "t", 0)
	self := selfTimes(log.spans)
	if self["item"] != 0 {
		t.Errorf("root self time = %d, want 0", self["item"])
	}
	var sum int64
	for name, v := range self {
		if name != "item" {
			sum += v
		}
	}
	if sum != 600 {
		t.Errorf("children sum to %d, want the transit 600", sum)
	}
	// The send's end is clamped to s0's start, which came first here.
	if self["ingress"] != 30 || self["hop.0"] != 0 {
		t.Errorf("ingress %d, hop.0 %d; want 30 and 0", self["ingress"], self["hop.0"])
	}
	b := tr.budget()
	if b.sum() != b.Transit || b.Transit != 600 {
		t.Errorf("budget sums to %g, transit %g; want both 600", b.sum(), b.Transit)
	}
}
