// Reservation-aware search: when several jobs share one grid, a
// mapping for one job must be scored against the capacity the other
// jobs' mappings already claim, not against bare nodes. Reservations
// turns a set of co-resident (spec, mapping) pairs into a per-node
// utilisation vector — NodeBusy per item × predicted rate, the
// fraction of each node the tenant saturates — which composes with
// background-load estimates into the residual-capacity load vector the
// ordinary SearchAvail machinery optimises over. The cluster arbiter
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

// Add claims the capacity one tenant's mapping saturates at the given
// background loads: the analytic model rates the mapping, and each
// node is charged its busy-time per item times the predicted rate —
// the utilisation a saturated run imposes.
func (r *Reservations) Add(spec model.PipelineSpec, m model.Mapping, loads []float64) error {
	s := model.AcquirePredictScratch()
	defer model.ReleasePredictScratch(s)
	pred, err := model.PredictInto(r.g, spec, m, loads, s)
	if err != nil {
		return fmt.Errorf("sched: reserve: %w", err)
	}
	for n, busy := range pred.NodeBusy {
		r.used[n] += busy * pred.Throughput
	}
	return nil
}

// UseOf computes the per-node utilisation vector Add would charge for
// the mapping — busy per item × predicted rate — into dst (grown as
// needed) without touching the ledger. Callers that cache placements
// (the incremental arbiter) store this vector once and replay it with
// AddUse on later rounds, skipping the model evaluation entirely; the
// replayed charges are the very floats Add would have produced, so the
// ledger stays bit-identical.
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

// Residual folds the ledger into a background-load vector: the
// returned loads[n] is the base estimate plus the reserved fraction,
// clamped to the model's 0.99 saturation cap. base may be nil (idle).
func (r *Reservations) Residual(base []float64) []float64 {
	return r.ResidualInto(nil, base)
}

// ResidualInto is Residual over caller-owned storage: dst is grown as
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
		if l > 0.99 {
			l = 0.99
		}
		dst[n] = l
	}
	return dst
}

// SearchResidual runs a fault- and reservation-aware search: the
// strategy sees the residual capacity (background load plus the
// ledger's claims) and only the nodes the availability mask admits.
// A nil ledger degenerates to SearchAvailable — the one-tenant case.
func SearchResidual(s Searcher, g *grid.Grid, spec model.PipelineSpec, base []float64, avail []bool, resv *Reservations) (model.Mapping, model.Prediction, error) {
	loads := base
	if resv != nil {
		loads = resv.Residual(base)
	}
	return SearchAvailable(s, g, spec, loads, avail)
}

// ImproveResidual is the replication pass of SearchResidual: bottleneck
// stages replicate onto additional admitted nodes while the prediction
// under residual capacity improves.
func ImproveResidual(g *grid.Grid, spec model.PipelineSpec, m model.Mapping, base []float64, maxReplicas int, avail []bool, resv *Reservations) (model.Mapping, model.Prediction, error) {
	loads := base
	if resv != nil {
		loads = resv.Residual(base)
	}
	return ImproveWithReplicationAvail(g, spec, m, loads, maxReplicas, avail)
}
