// Search scratch: the reusable context behind every strategy's hot
// path. One Scratch owns the buffers a search needs — candidate node
// lists, effective speeds, branch-and-bound state, DP tables, the
// result mapping's storage and a model.PredictScratch for the analytic
// evaluations — so a steady-state caller (the cluster's arbitration
// loop, the adaptation controller, the benchmarks) performs zero
// allocations per search.
//
// Two entry points exist:
//
//   - the classic Searcher/AvailSearcher API, which draws a Scratch
//     from a package pool per call and returns detached (caller-owned)
//     results — the old allocation profile at the call boundary only;
//   - SearchWith, which runs a strategy through a caller-held Scratch
//     and returns results ALIASING that scratch: valid until the next
//     search on it, free of any allocation.
package sched

import (
	"fmt"
	"sync"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// errMaskLen and errNoNodes are the mask validators' diagnostics
// (checkAvail, Scratch.idsFor).
func errMaskLen(got, np int) error {
	return fmt.Errorf("sched: availability mask covers %d nodes, grid has %d", got, np)
}

func errNoNodes() error { return fmt.Errorf("sched: no nodes available") }

// SearchCounters accumulates candidate-evaluation statistics across
// searches: how large the walked spaces were and how many candidates
// actually reached the analytic model. The difference is the work
// branch-and-bound pruning eliminated.
type SearchCounters struct {
	// Candidates is the total size of the search spaces walked (the
	// np^ns candidates an unpruned enumeration would rate).
	Candidates uint64
	// Evaluated is the number of candidates the analytic model rated.
	Evaluated uint64
}

// Pruned returns the number of candidates cut without evaluation.
func (c SearchCounters) Pruned() uint64 {
	if c.Evaluated > c.Candidates {
		return 0
	}
	return c.Candidates - c.Evaluated
}

// PruneRatio returns Candidates/Evaluated — "the search did N× less
// model work than brute force". 1.0 means no pruning; 0 evaluations
// reports 0.
func (c SearchCounters) PruneRatio() float64 {
	if c.Evaluated == 0 {
		return 0
	}
	return float64(c.Candidates) / float64(c.Evaluated)
}

// bbFlow is one directed link's partial per-item bytes along the
// current branch-and-bound path (the sched-side mirror of the model's
// flow accumulator).
type bbFlow struct {
	a, b  grid.NodeID
	bytes float64
}

// Scratch is the reusable search context. The zero value is ready;
// buffers grow on first use and persist across searches. A Scratch is
// NOT safe for concurrent use.
type Scratch struct {
	ps *model.PredictScratch

	ids []grid.NodeID // candidate node list (idsFor)
	eff []float64     // effective speeds (effInto)

	// Result storage: the mapping and prediction a scratch-path search
	// returns alias these.
	resBacking []grid.NodeID
	resRows    [][]grid.NodeID
	busyKeep   []float64
	busyKeep2  []float64 // second keep buffer (climb/improve interiors)

	// Branch-and-bound state (Exhaustive).
	bbAssign []grid.NodeID // current partial assignment, one node per stage
	bbRows   [][]grid.NodeID
	busy     []float64 // partial per-node busy seconds per item
	cores    []float64 // per-node core counts
	wOverEff []float64 // [stage*np+node] per-stage busy increment
	bbBytes  []float64 // per-depth incoming chain-edge bytes
	flows    []bbFlow  // partial per-pair link bytes along the path

	// ContiguousDP tables (flattened [i*(np+1)+j]).
	prefix []float64
	dp     []float64
	cut    []int32

	// Greedy state.
	order []int
	gBusy []float64

	// LocalSearch climb mapping, and what the model said of the
	// assignments this search has already rated.
	curBacking []grid.NodeID
	curRows    [][]grid.NodeID
	rated      ratedTable

	// Residual-load buffer (reservation-aware searches).
	loads []float64

	// Branch-and-bound incumbent/telemetry for the current search.
	bb bbState
}

// ratedSlots is the size of a ratedTable: a power of two, far above
// the few dozen distinct assignments a climb over a cluster lease
// visits, and small enough to live in a scratch for good.
const ratedSlots = 1024

// ratedTable remembers, for the span of one search, the throughput the
// analytic model gave each candidate assignment (one node per stage),
// so the climbs of a LocalSearch — greedy start plus restarts, over
// the same spec, loads and mask — rate a mapping once. It is a
// direct-mapped cache: an assignment hashes to one slot, a hit is
// verified against the stored assignment, and a collision overwrites.
// A search space larger than the table therefore loses remembered
// ratings, never correctness, and no size is special-cased. reset
// starts a new search in O(1) by advancing the epoch a live slot must
// carry.
type ratedTable struct {
	epoch uint64
	stamp []uint64      // [slot] epoch that filled it
	keys  []grid.NodeID // [slot*ns : slot*ns+ns] the assignment
	tp    []float64     // [slot] its predicted throughput
}

// reset empties the table for a search over ns-stage assignments.
func (t *ratedTable) reset(ns int) {
	if t.stamp == nil {
		t.stamp = make([]uint64, ratedSlots)
		t.tp = make([]float64, ratedSlots)
	}
	if len(t.keys) < ratedSlots*ns {
		t.keys = make([]grid.NodeID, ratedSlots*ns)
	}
	t.epoch++
}

// lookup returns the slot the assignment hashes to and, when this
// search has already rated exactly that assignment, its throughput.
func (t *ratedTable) lookup(assign []grid.NodeID) (slot int, tp float64, ok bool) {
	h := uint64(14695981039346656037)
	for _, n := range assign {
		h = (h ^ uint64(n)) * 1099511628211
	}
	slot = int((h ^ h>>32) & (ratedSlots - 1))
	if t.stamp[slot] != t.epoch {
		return slot, 0, false
	}
	for i, n := range t.keys[slot*len(assign):][:len(assign)] {
		if assign[i] != n {
			return slot, 0, false
		}
	}
	return slot, t.tp[slot], true
}

// store files an assignment's throughput in the slot lookup returned.
func (t *ratedTable) store(slot int, assign []grid.NodeID, tp float64) {
	t.stamp[slot] = t.epoch
	copy(t.keys[slot*len(assign):], assign)
	t.tp[slot] = tp
}

// NewScratch returns an empty search scratch (it creates its own
// prediction scratch rather than borrowing a pooled one, so holding a
// Scratch long-term does not starve the model pool).
func NewScratch() *Scratch {
	return &Scratch{ps: model.NewPredictScratch()}
}

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// AcquireScratch takes a warm scratch from the package pool; pair with
// ReleaseScratch. The classic Search/SearchAvail entry points do this
// internally — hold one explicitly only around SearchWith loops.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a scratch to the pool. Results of SearchWith
// on it must not be used afterwards.
func ReleaseScratch(sc *Scratch) { scratchPool.Put(sc) }

// scratchSearcher is the internal strategy interface: search through a
// caller-owned scratch, returning results that alias it. Every
// built-in strategy implements it.
type scratchSearcher interface {
	searchScratch(sc *Scratch, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error)
}

// SearchWith is the zero-allocation counterpart of SearchAvailable: it
// runs the strategy through the caller's scratch. The returned
// mapping's rows and the prediction's NodeBusy alias scratch-owned
// storage — valid until the next search on sc; Clone/copy to retain.
// Strategies that do not implement the scratch path fall back to
// SearchAvailable (allocating, same results).
func SearchWith(sc *Scratch, s Searcher, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	excludes := false
	for _, ok := range avail {
		if !ok {
			excludes = true
			break
		}
	}
	if !excludes {
		// Mirror SearchAvailable: a mask that excludes nothing is the
		// plain search (and its length is not validated).
		avail = nil
	}
	if ss, ok := s.(scratchSearcher); ok {
		return ss.searchScratch(sc, g, spec, loads, avail)
	}
	return SearchAvailable(s, g, spec, loads, avail)
}

// detach copies a scratch-aliased result into caller-owned storage —
// the boundary between the pooled internals and the classic API.
func detach(m model.Mapping, p model.Prediction, err error) (model.Mapping, model.Prediction, error) {
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	m = m.Clone()
	p.NodeBusy = append([]float64(nil), p.NodeBusy...)
	return m, p, nil
}

// searchPooled runs a scratch-path strategy through a pooled scratch
// and detaches the result: the classic SearchAvail body.
func searchPooled(ss scratchSearcher, g *grid.Grid, spec model.PipelineSpec, loads []float64, avail []bool) (model.Mapping, model.Prediction, error) {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	return detach(ss.searchScratch(sc, g, spec, loads, avail))
}

// idsFor fills sc.ids with the available node IDs (nil mask = all).
func (sc *Scratch) idsFor(g *grid.Grid, avail []bool) ([]grid.NodeID, error) {
	np := g.NumNodes()
	if avail != nil && len(avail) != np {
		return nil, errMaskLen(len(avail), np)
	}
	if cap(sc.ids) < np {
		sc.ids = make([]grid.NodeID, 0, np)
	}
	sc.ids = sc.ids[:0]
	for i := 0; i < np; i++ {
		if avail == nil || avail[i] {
			sc.ids = append(sc.ids, grid.NodeID(i))
		}
	}
	if len(sc.ids) == 0 {
		return nil, errNoNodes()
	}
	return sc.ids, nil
}

// effFor fills sc.eff with per-node effective speeds, exactly
// effectiveSpeeds over reused storage.
func (sc *Scratch) effFor(g *grid.Grid, loads []float64) []float64 {
	np := g.NumNodes()
	if cap(sc.eff) < np {
		sc.eff = make([]float64, np)
	}
	sc.eff = sc.eff[:np]
	for n := range sc.eff {
		l := 0.0
		if loads != nil && n < len(loads) {
			l = clamp01(loads[n])
		}
		sc.eff[n] = g.Node(grid.NodeID(n)).Speed * (1 - l)
	}
	return sc.eff
}

// resultRows sizes the result-mapping storage for ns single-node
// stages and returns the backing array (resRows[i] = resBacking[i:i+1]).
func (sc *Scratch) resultRows(ns int) []grid.NodeID {
	sc.resBacking, sc.resRows = sizeRows(sc.resBacking, sc.resRows, ns)
	return sc.resBacking
}

// sizeRows grows a (backing, rows) pair for ns one-node stages with
// rows windowing the backing array.
func sizeRows(backing []grid.NodeID, rows [][]grid.NodeID, ns int) ([]grid.NodeID, [][]grid.NodeID) {
	if cap(backing) < ns {
		backing = make([]grid.NodeID, ns)
	}
	backing = backing[:ns]
	if cap(rows) < ns {
		rows = make([][]grid.NodeID, ns)
	}
	rows = rows[:ns]
	for i := range rows {
		rows[i] = backing[i : i+1 : i+1]
	}
	return backing, rows
}

func clamp01(l float64) float64 {
	if l < 0 {
		return 0
	}
	if l > 0.99 {
		return 0.99
	}
	return l
}
