// Reservation-aware search: when several jobs share one grid, a
// mapping for one job must be scored against the capacity the other
// jobs' mappings already claim, not against bare nodes. Reservations
// turns a set of co-resident (spec, mapping) pairs into a per-node
// utilisation vector — NodeBusy per item × predicted rate, the
// fraction of each node the tenant saturates — which composes with
// background-load estimates into the residual-capacity load vector the
// ordinary Searcher.SearchAvail machinery optimises over. The cluster arbiter
// (internal/cluster) rebuilds one per arbitration round.
package sched

import (
	"fmt"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
)

// Reservations is the per-node capacity other tenants have claimed.
type Reservations struct {
	g    *grid.Grid
	used []float64 // fraction of each node's capacity reserved
}

// NewReservations returns an empty reservation ledger for the grid.
func NewReservations(g *grid.Grid) *Reservations {
	return &Reservations{g: g, used: make([]float64, g.NumNodes())}
}

// Reset clears the ledger for a new arbitration round.
func (r *Reservations) Reset() {
	for i := range r.used {
		r.used[i] = 0
	}
}

// UseOf computes the capacity one tenant's mapping saturates at the
// given background loads — each node's busy time per item times the
// predicted rate, the utilisation a saturated run imposes — into dst
// (grown as needed) without touching the ledger. AddUse charges it.
// Callers that cache placements (the incremental arbiter) store this
// vector once and replay it on later rounds, skipping the model
// evaluation entirely; the replayed charges are the very floats a
// fresh UseOf would produce, so the ledger stays bit-identical.
func (r *Reservations) UseOf(dst []float64, spec model.PipelineSpec, m model.Mapping, loads []float64) ([]float64, error) {
	s := model.AcquirePredictScratch()
	defer model.ReleasePredictScratch(s)
	pred, err := model.PredictInto(r.g, spec, m, loads, s)
	if err != nil {
		return dst, fmt.Errorf("sched: reserve: %w", err)
	}
	dst = dst[:0]
	for _, busy := range pred.NodeBusy {
		dst = append(dst, busy*pred.Throughput)
	}
	return dst, nil
}

// AddUse charges a utilisation vector previously computed by UseOf.
func (r *Reservations) AddUse(use []float64) {
	for n, u := range use {
		r.used[n] += u
	}
}

// Used returns the reserved utilisation of node n in [0, 1+].
func (r *Reservations) Used(n grid.NodeID) float64 { return r.used[n] }

// SnapshotInto copies the ledger's per-node used vector into dst
// (grown as needed) and returns it: the upstream ledger the
// incremental arbiter keys each tenant's cached search on, compared
// entry by entry (Used) at the nodes of the tenant's lease.
func (r *Reservations) SnapshotInto(dst []float64) []float64 {
	if cap(dst) < len(r.used) {
		dst = make([]float64, len(r.used))
	}
	dst = dst[:len(r.used)]
	copy(dst, r.used)
	return dst
}

// ResidualInto folds the ledger into a background-load vector: dst[n]
// is the base estimate plus the reserved fraction, clamped by
// model.ClampLoad (base may be nil: idle). dst is grown as
// needed and returned, so steady-state arbitration loops fold the
// ledger without allocating.
func (r *Reservations) ResidualInto(dst, base []float64) []float64 {
	if cap(dst) < len(r.used) {
		dst = make([]float64, len(r.used))
	}
	dst = dst[:len(r.used)]
	for n := range dst {
		l := r.used[n]
		if base != nil && n < len(base) && base[n] > 0 {
			l += base[n]
		}
		dst[n] = model.ClampLoad(l)
	}
	return dst
}
