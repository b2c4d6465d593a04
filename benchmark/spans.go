package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one item (or one simulated
// rep) share a TraceID; Parent names the span of the same trace that
// caused this one, empty for the root. Times are nanoseconds on the
// benchmark's monotonic clock.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	TraceID string `json:"trace_id"`
}

// clock reads nanoseconds since a fixed base, so stamps fit an int64
// and zero can mean "not stamped".
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now().Add(-time.Nanosecond)} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanLog collects the spans a run wants written out. Live items keep
// their stamps in compact per-item arrays during the run (see
// liveTrace) and are expanded into spans only here, after timing.
type spanLog struct {
	spans []span
}

// maxSpanItems bounds how many traced live items per rep are expanded
// into the span file: the budget statistics use every traced item, the
// file is a sample a person can open.
const maxSpanItems = 500

func (l *spanLog) add(s ...span) {
	if l != nil {
		l.spans = append(l.spans, s...)
	}
}

// timed runs fn inside a span.
func (l *spanLog) timed(c clock, name, parent, traceID string, fn func()) {
	start := c.now()
	fn()
	l.add(span{Name: name, Start: start, End: c.now(), Parent: parent, TraceID: traceID})
}

// write emits the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover. Children
// are clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) map[string]int64 {
	type key struct{ trace, name string }
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.TraceID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[key{s.TraceID, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}
