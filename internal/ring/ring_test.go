package ring

import (
	"math/rand"
	"testing"
)

func TestFIFOBasics(t *testing.T) {
	var q FIFO[int]
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d = %v,%v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestFIFOWrapAround(t *testing.T) {
	var q FIFO[int]
	// Interleave pushes and pops so head walks around the buffer many
	// times at every size.
	next, want := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			v, _ := q.Pop()
			if v != want {
				t.Fatalf("round %d: got %d want %d", round, v, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != want {
			t.Fatalf("drain: got %d want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}

func TestFIFORemoveIf(t *testing.T) {
	var q FIFO[int]
	// Force a wrapped layout first.
	for i := 0; i < 6; i++ {
		q.Push(-1)
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	removed := q.RemoveIf(func(v int) bool { return v%3 == 0 })
	if len(removed) != 4 || removed[0] != 0 || removed[1] != 3 || removed[2] != 6 || removed[3] != 9 {
		t.Fatalf("removed = %v", removed)
	}
	var rest []int
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		rest = append(rest, v)
	}
	want := []int{1, 2, 4, 5, 7, 8}
	if len(rest) != len(want) {
		t.Fatalf("rest = %v", rest)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("rest = %v, want %v", rest, want)
		}
	}
	if q.RemoveIf(func(int) bool { return true }) != nil {
		t.Fatal("RemoveIf on empty should allocate nothing")
	}
}

func TestReorderInOrder(t *testing.T) {
	var r Reorder[string]
	if _, _, ok := r.PopNext(); ok {
		t.Fatal("PopNext on empty")
	}
	r.Put(0, "a")
	seq, v, ok := r.PopNext()
	if !ok || seq != 0 || v != "a" {
		t.Fatalf("PopNext = %d,%q,%v", seq, v, ok)
	}
}

func TestReorderShuffled(t *testing.T) {
	const n = 1000
	rnd := rand.New(rand.NewSource(1))
	perm := rnd.Perm(n)
	var r Reorder[int]
	var got []int
	for _, seq := range perm {
		r.Put(seq, seq*10)
		for {
			seq, v, ok := r.PopNext()
			if !ok {
				break
			}
			if v != seq*10 {
				t.Fatalf("seq %d carried %d", seq, v)
			}
			got = append(got, seq)
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("out of order at %d: %d", i, s)
		}
	}
	if r.Held() != 0 {
		t.Fatalf("Held = %d after drain", r.Held())
	}
}

func TestReorderGrowPreservesWindow(t *testing.T) {
	var r Reorder[int]
	// Fill a sparse window that spans several growth steps, leaving 0
	// outstanding so nothing can be emitted yet.
	for _, seq := range []int{5, 17, 40, 3, 99, 1} {
		r.Put(seq, seq)
	}
	r.Put(0, 0)
	emitted := map[int]bool{}
	for {
		seq, v, ok := r.PopNext()
		if !ok {
			break
		}
		if seq != v {
			t.Fatalf("seq %d carried %d", seq, v)
		}
		emitted[seq] = true
	}
	// 0..1 are contiguous; 3 waits on 2.
	if !emitted[0] || !emitted[1] || emitted[3] {
		t.Fatalf("emitted = %v", emitted)
	}
	if r.Next() != 2 || r.Held() != 5 {
		t.Fatalf("Next=%d Held=%d", r.Next(), r.Held())
	}
}

func TestReorderPanics(t *testing.T) {
	var r Reorder[int]
	r.Put(0, 1)
	r.PopNext()
	for name, fn := range map[string]func(){
		"stale":     func() { r.Put(0, 2) },
		"duplicate": func() { r.Put(1, 1); r.Put(1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s Put should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	for i := 0; i < 64; i++ {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Push(i)
		}
		for i := 0; i < 64; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state FIFO allocs = %v", allocs)
	}
}

func TestReorderSteadyStateZeroAlloc(t *testing.T) {
	var r Reorder[int]
	seq := 0
	allocs := testing.AllocsPerRun(100, func() {
		// Out-of-order pairs: (seq+1, seq) — the window stays at 2.
		r.Put(seq+1, 0)
		r.Put(seq, 0)
		r.PopNext()
		r.PopNext()
		seq += 2
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reorder allocs = %v", allocs)
	}
}
