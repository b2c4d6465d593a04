package main

import (
	"testing"
	"time"
)

type emitted struct {
	i                int
	intended, actual int64
}

// fakeTime is a clock the test advances: every read costs a tick, and a
// sleep wakes late by overshot, or — with early set — after only half
// the time asked for.
type fakeTime struct {
	now      int64
	tick     int64
	overshot int64
	early    bool
	slept    []time.Duration
}

func (f *fakeTime) read() int64 { f.now += f.tick; return f.now }

func (f *fakeTime) sleep(d time.Duration) {
	f.slept = append(f.slept, d)
	if f.early {
		f.now += int64(d) / 2
		return
	}
	f.now += int64(d) + f.overshot
}

func TestPaceSendsEverythingDueOnWakeUpAndStampsBothTimes(t *testing.T) {
	due := []int64{100, 200, 250, 1000, 1001}
	ft := &fakeTime{tick: 1, overshot: 300}
	var got []emitted
	pace(due, ft.read, ft.sleep, func(i int, intended, actual int64) {
		got = append(got, emitted{i, intended, actual})
	})
	if len(got) != len(due) {
		t.Fatalf("emitted %d of %d due items: a late item was dropped", len(got), len(due))
	}
	for k, e := range got {
		if e.i != k || e.intended != due[k] {
			t.Errorf("emission %d is item %d intended %d, want item %d intended %d", k, e.i, e.intended, k, due[k])
		}
		if e.actual <= e.intended {
			t.Errorf("item %d: actual %d not after intended %d", k, e.actual, e.intended)
		}
	}
	// The first sleep overshoots past items 0–2: all three go out on
	// that one wake-up, so there are two sleeps, not five.
	if len(ft.slept) != 2 {
		t.Errorf("slept %d times (%v), want 2", len(ft.slept), ft.slept)
	}
	if got[2].actual >= due[3] {
		t.Errorf("item 2 sent at %d, after item 3 was due: the burst was not sent on wake-up", got[2].actual)
	}
}

func TestPaceNeverSendsEarly(t *testing.T) {
	due := []int64{1000, 5000}
	ft := &fakeTime{tick: 1, early: true} // every sleep returns early
	var got []emitted
	pace(due, ft.read, ft.sleep, func(i int, intended, actual int64) {
		got = append(got, emitted{i, intended, actual})
	})
	if len(got) != 2 {
		t.Fatalf("emitted %d of 2", len(got))
	}
	for _, e := range got {
		if e.actual < e.intended {
			t.Errorf("item %d sent at %d, before it was due at %d", e.i, e.actual, e.intended)
		}
	}
	if len(ft.slept) < 3 {
		t.Errorf("slept %d times; an early wake-up must sleep again", len(ft.slept))
	}
}

func TestPoissonOffsetsFollowTheSeed(t *testing.T) {
	a := poissonOffsets(25_000, 1, 100*time.Millisecond)
	b := poissonOffsets(25_000, 1, 100*time.Millisecond)
	c := poissonOffsets(25_000, 2, 100*time.Millisecond)
	if len(a) < 2000 || len(a) > 3000 {
		t.Fatalf("%d arrivals in 100 ms at 25 000/s", len(a))
	}
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Error("the same seed gave two schedules")
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("two seeds gave one schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule not in time order")
		}
	}
	if got := prefix(a, 10*time.Millisecond); len(got) == 0 || got[len(got)-1] >= int64(10*time.Millisecond) {
		t.Error("prefix kept an item due after the horizon")
	}
}

func TestDeliveredByEndCountsOnlyItemsReceivedBeforeTheScheduleEnds(t *testing.T) {
	ms := int64(time.Millisecond)
	offsets := []int64{0, 10 * ms, 20 * ms}                // the schedule ends at 20 ms + the 5 ms limit
	rep := liveRep{sojourn: []float64{100, 14_000, 6_000}} // µs: received at 0.1, 24 and 26 ms
	if got := deliveredByEnd(offsets, rep); got != 2 {
		t.Errorf("delivered by end = %d, want 2 (the last item arrives 1 ms after the end)", got)
	}
	if got := deliveredByEnd(nil, liveRep{}); got != 0 {
		t.Errorf("empty schedule delivered %d", got)
	}
}
