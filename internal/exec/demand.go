package exec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// demandBlock is how many consecutive items one draw fills rows for.
const demandBlock = 256

// demands draws the items' work-demand rows ahead of admission. Items
// are admitted in seq order, and a row is a pure function of (stage,
// seq), so the rows of block k+1 (seqs 256(k+1) … 256(k+2)−1) can be
// drawn by a helper goroutine while the event loop admits block k: the
// pipeline pattern applied to the simulator's own source.
//
// Two slots alternate between blocks. When the loop enters block k it
// arms the other slot for block k+1 and starts a helper that draws it
// and exits. A slot's mutex is held for the whole of a draw, so the loop
// entering a block either finds it drawn, waits for a helper that has
// begun it, or — when the helper has not begun — draws it itself; the
// helper then finds the slot drawn and writes nothing. No helper is
// started, and no slot re-armed, while a started one has not yet taken
// its slot's lock and looked, so a helper only ever draws the block it
// was started for, and a run that ends leaves at most one behind.
type demands struct {
	sampler func(stage, seq int) float64 // nil: items carry the spec's work
	stages  int
	// total bounds the seqs drawn (zero: unbounded); set at Start, since
	// RunItems sets TotalItems after New.
	total   int
	slots   [2]demandSlot
	helping atomic.Bool // a helper goroutine is outstanding
	// The loop's view: rows lo … hi−1 are read from cur without the
	// lock, since nothing writes a drawn slot until the loop re-arms it.
	cur    *demandSlot
	lo, hi int
}

// demandSlot holds one block's rows: per seq, one demand per stage.
type demandSlot struct {
	d      *demands
	mu     sync.Mutex
	lo, hi int // the seqs the slot is armed for
	drawn  bool
	n      int // rows drawn: hi−lo, unless the sampler panicked at lo+n
	fault  any // that panic, re-raised on the loop when it reaches lo+n
	rows   []float64
}

func (d *demands) init(sampler func(stage, seq int) float64, stages int) {
	d.sampler, d.stages = sampler, stages
	for i := range d.slots {
		d.slots[i].d = d
	}
}

// row returns item seq's demand row. Seqs are asked for in increasing
// order, one per admission.
func (d *demands) row(seq int) []float64 {
	if seq >= d.hi {
		d.enter(seq)
	}
	i := (seq - d.lo) * d.stages
	return d.cur.rows[i : i+d.stages]
}

// enter makes seq's block current, drawing it on the loop unless a
// helper has, and hands the next block to a helper.
func (d *demands) enter(seq int) {
	lo := seq - seq%demandBlock
	s := &d.slots[(seq/demandBlock)&1]
	s.mu.Lock()
	if s.lo != lo || !s.drawn {
		s.arm(lo, d.total)
		s.draw()
	}
	n, fault := s.n, s.fault
	s.mu.Unlock()
	if seq >= lo+n {
		panic(fault) // the sampler panicked drawing this very row
	}
	d.cur, d.lo, d.hi = s, lo, lo+n
	next := lo + demandBlock
	if (d.total > 0 && next >= d.total) || d.helping.Load() {
		return
	}
	o := &d.slots[(next/demandBlock)&1]
	o.mu.Lock()
	o.arm(next, d.total)
	o.mu.Unlock()
	d.helping.Store(true)
	go o.help()
}

// arm points the slot at the block starting at lo; the caller holds mu.
func (s *demandSlot) arm(lo, total int) {
	hi := lo + demandBlock
	if total > 0 && hi > total {
		hi = total
	}
	s.lo, s.hi, s.drawn, s.n, s.fault = lo, hi, false, 0, nil
}

// draw fills the armed block; the caller holds mu. A sampler panic (or
// an invalid demand) stops the block at that row and is kept for the
// loop to re-raise, so it surfaces on the goroutine running the
// executor whichever goroutine drew the row.
func (s *demandSlot) draw() {
	ns := s.d.stages
	s.drawn = true
	if need := (s.hi - s.lo) * ns; cap(s.rows) < need {
		s.rows = make([]float64, need)
	}
	defer func() { s.fault = recover() }()
	for seq := s.lo; seq < s.hi; seq++ {
		row := s.rows[s.n*ns : (s.n+1)*ns]
		for stage := range row {
			w := s.d.sampler(stage, seq)
			if w < 0 || math.IsNaN(w) {
				panic(fmt.Sprintf("exec: work sampler returned %v", w))
			}
			row[stage] = w
		}
		s.n++
	}
}

// help is a helper goroutine's whole life: draw the slot unless the loop
// already has, then exit.
func (s *demandSlot) help() {
	s.mu.Lock()
	if !s.drawn {
		s.draw()
	}
	s.d.helping.Store(false)
	s.mu.Unlock()
}
