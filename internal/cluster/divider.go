// Incremental cross-job arbitration. A Divider runs the cluster's
// division round — arbiter leases, then per-tenant mapping search
// against the other tenants' reservations — through persistent state
// that memoizes each tenant's last search:
//
//   - the arbiter re-divides through reusable buffers (Arbiter.Divide);
//   - a tenant's search is keyed on exactly what it reads: its lease
//     mask, and the base load and the upstream reservation ledger at
//     the lease's nodes. While those are unchanged since its last
//     search it gets its cached placement back, and the ledger charge
//     its mapping imposes is replayed from a cached utilisation vector
//     (Reservations.AddUse) without touching the analytic model;
//   - only tenants whose inputs actually changed re-search, through
//     one long-lived sched.Scratch, so a round costs model evaluations
//     only for the tenants whose lease, or load inside it, moved, and a
//     round where nothing moved a handful of float compares per tenant
//     and zero allocations.
//
// The key is everything a search reads. Every strategy, the
// improvement pass and the ledger charge (Reservations.UseOf) place
// stages only on nodes the lease mask admits, and the analytic model
// reads a load only at the nodes a candidate mapping uses — so the
// residual load outside the lease never reaches a result. Inside it,
// the residual is a pure function of (base load, upstream ledger), and
// a nil base vector is read as zeros everywhere (ResidualInto,
// PredictInto), so nil and all-zero bases share a key.
//
// The replay is exact, not approximate: every search strategy is a
// deterministic pure function of (spec, lease, residual loads inside
// the lease), and the cached charge vector holds the very floats
// Reservations.UseOf would recompute. A cache hit therefore yields
// bit-identical leases, mappings, predictions and ledger state to
// re-running the search — the F12/F13 goldens cannot tell the
// difference — and any comparison doubt (NaN, length drift) misses the
// cache and recomputes.
package cluster

import (
	"fmt"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sched"
)

// DividerTenant is one tenant of an incremental division round: the
// arbiter-facing claim plus what the mapping search needs.
type DividerTenant struct {
	// ID is the tenant's stable identity across rounds — its memo slot.
	// The cluster uses the job index; IDs must be small non-negative
	// integers (the state table is ID-indexed).
	ID int
	// Name labels the tenant in error messages.
	Name string
	Tenant
	Spec     model.PipelineSpec
	Searcher sched.Searcher
}

// Placement is one tenant's outcome of a division round. Mask aliases
// divider-owned storage rewritten by the next Round — copy to retain.
// Mapping and Pred are owned by the divider's memo but never mutated
// in place (a re-search replaces them wholesale), so they may be
// retained and shared.
type Placement struct {
	Mask    model.CapacityMask
	Mapping model.Mapping
	Pred    model.Prediction
}

// DividerStats counts the incremental arbiter's work.
type DividerStats struct {
	// Rounds is the number of division rounds run.
	Rounds int
	// Searches is the number of tenant mapping searches executed.
	Searches int
	// Cached is the number of tenant searches skipped by replaying a
	// memoized placement. Rounds×tenants = Searches + Cached.
	Cached int
}

// tenantState is one tenant's memoized search: the inputs it was keyed
// on (lease, and base loads and upstream ledger inside the lease) and
// the outputs to replay. loads and used are whole-grid snapshots; only
// their entries at the lease's nodes are ever compared.
type tenantState struct {
	valid   bool
	mask    model.CapacityMask
	loads   []float64 // base loads at search time (a nil base as zeros)
	used    []float64 // reservation ledger before this tenant's search
	use     []float64 // ledger charge of the cached mapping (UseOf)
	mapping model.Mapping
	pred    model.Prediction
}

// matches reports whether everything the memoized search read is
// unchanged this round: the same lease, and at each of its nodes the
// same base load and upstream ledger entry. A NaN compares unequal to
// itself and a base vector of the wrong length matches nothing, so
// either degrades a would-be hit into a recomputation.
func (st *tenantState) matches(mask model.CapacityMask, base []float64, resv *sched.Reservations) bool {
	if len(st.mask) != len(mask) || (base != nil && len(base) != len(mask)) {
		return false
	}
	for n, leased := range mask {
		if st.mask[n] != leased {
			return false
		}
		if !leased {
			continue
		}
		if st.loads[n] != baseAt(base, n) || st.used[n] != resv.Used(grid.NodeID(n)) {
			return false
		}
	}
	return true
}

// baseAt reads a base-load vector the way the searches do: nil is idle.
func baseAt(base []float64, n int) float64 {
	if base == nil {
		return 0
	}
	return base[n]
}

// Divider is the reusable incremental-arbitration context for one
// grid. Not safe for concurrent use.
type Divider struct {
	g           *grid.Grid
	maxReplicas int
	arb         Arbiter
	resv        *sched.Reservations
	sc          *sched.Scratch
	states      []*tenantState
	tenants     []Tenant
	masks       []model.CapacityMask
	resid       []float64
	stats       DividerStats
}

// NewDivider returns a divider over the grid. maxReplicas bounds
// per-stage replication width in the improvement pass (≤0 = grid
// size, which is what a Cluster uses).
func NewDivider(g *grid.Grid, maxReplicas int) *Divider {
	return &Divider{
		g:           g,
		maxReplicas: maxReplicas,
		resv:        sched.NewReservations(g),
		sc:          sched.NewScratch(),
	}
}

// Stats returns the divider's cumulative work counters.
func (d *Divider) Stats() DividerStats { return d.stats }

// Round runs one division: arbiter leases over the available nodes,
// then each tenant's mapping searched (or replayed from the memo)
// inside its lease against the residual capacity of the tenants placed
// before it, in tenant order. out (len(tenants)) receives one
// Placement per tenant.
//
// A tenant is re-searched only when its memo key moved: its lease, or
// the base load or the upstream ledger at one of the lease's nodes
// (nil base = zeros). That is everything its search reads — no strategy
// places a stage outside the mask and the model reads loads only at
// the nodes a mapping uses — so a change elsewhere on the grid, or a
// caller alternating nil and all-zero bases, replays. A round in which
// no key moved performs no model evaluations and no allocations.
func (d *Divider) Round(avail []bool, tenants []DividerTenant, base []float64, out []Placement) error {
	if len(out) != len(tenants) {
		return fmt.Errorf("cluster: %d placements for %d tenants", len(out), len(tenants))
	}
	d.stats.Rounds++
	np := d.g.NumNodes()
	if cap(d.tenants) < len(tenants) {
		d.tenants = make([]Tenant, 0, len(tenants))
	}
	d.tenants = d.tenants[:0]
	for _, t := range tenants {
		d.tenants = append(d.tenants, t.Tenant)
	}
	for len(d.masks) < len(tenants) {
		d.masks = append(d.masks, make(model.CapacityMask, np))
	}
	masks := d.masks[:len(tenants)]
	if err := d.arb.Divide(d.g, avail, d.tenants, masks); err != nil {
		return err
	}
	d.resv.Reset()
	for i, t := range tenants {
		st := d.state(t.ID)
		if st.valid && st.matches(masks[i], base, d.resv) {
			d.resv.AddUse(st.use)
			d.stats.Cached++
		} else {
			if err := d.search(st, t, masks[i], base); err != nil {
				return err
			}
			d.stats.Searches++
		}
		out[i] = Placement{Mask: masks[i], Mapping: st.mapping, Pred: st.pred}
	}
	return nil
}

// state returns (growing on demand) the memo slot for a tenant ID.
func (d *Divider) state(id int) *tenantState {
	for len(d.states) <= id {
		d.states = append(d.states, nil)
	}
	if d.states[id] == nil {
		d.states[id] = &tenantState{}
	}
	return d.states[id]
}

// Release drops a tenant's memo slot. The memo is consulted only for
// the tenants of the current round, so the cluster releases a job's
// slot when the job finishes.
func (d *Divider) Release(id int) {
	if id < len(d.states) {
		d.states[id] = nil
	}
}

// search runs one tenant's mapping search and refreshes its memo: the
// ResidualInto → SearchWith → ImproveWithReplicationAvail → Add
// sequence the cluster always ran, over the divider's scratch and with
// the inputs/outputs recorded for later replay.
func (d *Divider) search(st *tenantState, t DividerTenant, mask model.CapacityMask, base []float64) error {
	st.valid = false
	st.used = d.resv.SnapshotInto(st.used)
	d.resid = d.resv.ResidualInto(d.resid, base)
	m, _, err := sched.SearchWith(d.sc, t.Searcher, d.g, t.Spec, d.resid, mask)
	if err != nil {
		return fmt.Errorf("cluster: job %q search: %w", t.Name, err)
	}
	// The improvement pass clones the scratch-aliased mapping and
	// detaches its prediction, so the memo owns what it stores.
	m, pred, err := sched.ImproveWithReplicationAvail(d.g, t.Spec, m, d.resid, d.maxReplicas, mask)
	if err != nil {
		return fmt.Errorf("cluster: job %q replicate: %w", t.Name, err)
	}
	st.use, err = d.resv.UseOf(st.use, t.Spec, m, base)
	if err != nil {
		return fmt.Errorf("cluster: job %q reserve: %w", t.Name, err)
	}
	d.resv.AddUse(st.use)
	st.mask = append(st.mask[:0], mask...)
	st.loads = st.loads[:0]
	for n := range mask {
		st.loads = append(st.loads, baseAt(base, n))
	}
	st.mapping = m
	st.pred = pred
	st.valid = true
	return nil
}
