package grid

import (
	"fmt"
	"math"
	"sort"
)

// NodeState is the availability of one grid processor. The zero value
// is Up. State is per-run mutable; the executor's churn driver owns the
// transitions (see internal/exec and DESIGN.md, "Node lifecycle &
// churn").
type NodeState int32

const (
	// Up: the node serves work normally.
	Up NodeState = iota
	// Draining: the node finishes the work it already accepted but
	// takes no new items; schedulers exclude it from new mappings. The
	// graceful counterpart of a crash.
	Draining
	// Down: the node has crashed or left the grid. In-flight work on it
	// is lost; queued work must be rerouted.
	Down
)

// String renders the state name used in logs and experiment tables.
func (s NodeState) String() string {
	switch s {
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ChurnKind is the type of one node-lifecycle transition.
type ChurnKind uint8

const (
	// ChurnCrash takes an Up or Draining node Down abruptly: in-service
	// work on it is lost and re-dispatched from the last stage boundary.
	ChurnCrash ChurnKind = iota
	// ChurnRejoin brings a previously crashed node back Up.
	ChurnRejoin
	// ChurnJoin brings a brand-new node Up: the node is declared in the
	// grid topology but starts Down and first becomes available at the
	// join time (elastic capacity).
	ChurnJoin
	// ChurnDrain moves an Up node to Draining: a scheduled, graceful
	// leave.
	ChurnDrain
)

// String renders the kind's config-file spelling.
func (k ChurnKind) String() string {
	switch k {
	case ChurnCrash:
		return "crash"
	case ChurnRejoin:
		return "rejoin"
	case ChurnJoin:
		return "join"
	case ChurnDrain:
		return "drain"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseChurnKind parses a config-file kind name.
func ParseChurnKind(s string) (ChurnKind, error) {
	switch s {
	case "crash":
		return ChurnCrash, nil
	case "rejoin":
		return ChurnRejoin, nil
	case "join":
		return ChurnJoin, nil
	case "drain":
		return ChurnDrain, nil
	default:
		return 0, fmt.Errorf("grid: unknown churn kind %q (want crash|rejoin|join|drain)", s)
	}
}

// ChurnEvent is one scheduled lifecycle transition of a named node.
type ChurnEvent struct {
	T    float64
	Node string
	Kind ChurnKind
}

// ChurnSchedule is a validated, time-ordered script of node lifecycle
// transitions — the deterministic churn axis of a scenario. Build with
// NewChurnSchedule; the executor replays it in virtual time, so two runs with the same
// schedule and seed are bit-identical.
type ChurnSchedule struct {
	events []ChurnEvent
}

// NewChurnSchedule sorts the events by time (stably, so same-instant
// events keep their given order) and validates them as a per-node state
// machine: crash needs an Up or Draining node, rejoin needs a Down
// node that was up before, join needs a node that has never been up,
// and drain needs an Up node. A node whose first event is a join
// starts Down (it has not entered the grid yet); every other node
// starts Up.
func NewChurnSchedule(events ...ChurnEvent) (*ChurnSchedule, error) {
	evs := append([]ChurnEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })

	state := map[string]NodeState{}
	wasUp := map[string]bool{}
	for _, ev := range evs {
		if ev.Node == "" {
			return nil, fmt.Errorf("grid: churn event at t=%v has no node name", ev.T)
		}
		if ev.T < 0 || math.IsNaN(ev.T) || math.IsInf(ev.T, 0) {
			return nil, fmt.Errorf("grid: churn event for %q has invalid time %v", ev.Node, ev.T)
		}
		if ev.Kind > ChurnDrain {
			return nil, fmt.Errorf("grid: churn event for %q at t=%v has unknown kind %d", ev.Node, ev.T, ev.Kind)
		}
		st, seen := state[ev.Node]
		if !seen {
			if ev.Kind == ChurnJoin {
				st = Down // declared but not yet part of the grid
			} else {
				st = Up
				wasUp[ev.Node] = true
			}
		}
		switch ev.Kind {
		case ChurnCrash:
			if st == Down {
				return nil, fmt.Errorf("grid: node %q is already down at t=%v (overlapping outage windows?)", ev.Node, ev.T)
			}
			st = Down
		case ChurnRejoin:
			// A Down node has been up: a node declared by a join is
			// Down only until its first event, the join itself.
			if st != Down {
				return nil, fmt.Errorf("grid: rejoin of node %q at t=%v before any crash", ev.Node, ev.T)
			}
			st = Up
		case ChurnJoin:
			if st != Down || wasUp[ev.Node] {
				return nil, fmt.Errorf("grid: join of node %q at t=%v but it is already part of the grid; use rejoin after a crash", ev.Node, ev.T)
			}
			st = Up
			wasUp[ev.Node] = true
		case ChurnDrain:
			if st != Up {
				return nil, fmt.Errorf("grid: drain of node %q at t=%v but it is %s", ev.Node, ev.T, st)
			}
			st = Draining
		}
		state[ev.Node] = st
	}
	return &ChurnSchedule{events: evs}, nil
}

// Events returns the time-ordered transitions (shared slice; do not
// mutate).
func (cs *ChurnSchedule) Events() []ChurnEvent { return cs.events }

// InitiallyDown returns the names of nodes that have not joined the
// grid at t=0: nodes whose first scheduled event is a join.
func (cs *ChurnSchedule) InitiallyDown() []string {
	seen := map[string]bool{}
	var out []string
	for _, ev := range cs.events {
		if seen[ev.Node] {
			continue
		}
		seen[ev.Node] = true
		if ev.Kind == ChurnJoin {
			out = append(out, ev.Node)
		}
	}
	return out
}

// InitialAvail returns the t=0 availability mask for g under this
// schedule — false for nodes that have not joined yet — or nil when
// every node starts Up, so callers can hand the result straight to an
// unrestricted search. Nodes named by the schedule must exist in g
// (ValidateAgainst).
func (cs *ChurnSchedule) InitialAvail(g *Grid) []bool {
	down := cs.InitiallyDown()
	if len(down) == 0 {
		return nil
	}
	avail := make([]bool, g.NumNodes())
	for i := range avail {
		avail[i] = true
	}
	for _, name := range down {
		avail[g.NodeByName(name).ID] = false
	}
	return avail
}

// ValidateAgainst checks that every event names a node of g.
func (cs *ChurnSchedule) ValidateAgainst(g *Grid) error {
	for _, ev := range cs.events {
		if g.NodeByName(ev.Node) == nil {
			return fmt.Errorf("grid: churn event at t=%v references unknown node %q", ev.T, ev.Node)
		}
	}
	return nil
}

// Availability returns the fraction of [0, horizon] the named node is
// Up (Draining counts as unavailable: it takes no new work). A node
// with no events is available throughout.
func (cs *ChurnSchedule) Availability(name string, horizon float64) float64 {
	if horizon <= 0 {
		return 1
	}
	up := true
	for _, ev := range cs.events {
		if ev.Node != name {
			continue
		}
		if ev.Kind == ChurnJoin {
			up = false // joins later; starts outside the grid
		}
		break
	}
	avail, last := 0.0, 0.0
	for _, ev := range cs.events {
		if ev.Node != name || ev.T > horizon {
			continue
		}
		if up {
			avail += ev.T - last
		}
		last = ev.T
		up = ev.Kind == ChurnRejoin || ev.Kind == ChurnJoin
	}
	if up {
		avail += horizon - last
	}
	return avail / horizon
}

// MeanAvailability returns the node-averaged Up fraction of the grid
// over [0, horizon] under this schedule.
func (cs *ChurnSchedule) MeanAvailability(g *Grid, horizon float64) float64 {
	if g.NumNodes() == 0 {
		return 1
	}
	sum := 0.0
	for _, n := range g.Nodes() {
		sum += cs.Availability(n.Name, horizon)
	}
	return sum / float64(g.NumNodes())
}

// Outage returns the crash/rejoin event pair taking the named node
// Down during [t0, t1) — the true node-failure primitive. (The old
// trace-based helper of the same name, which only saturated the node's
// background load, is now Saturate; see DESIGN.md, "Node lifecycle &
// churn".) It panics on an inverted window; schedule-level validation
// catches everything else.
func Outage(node string, t0, t1 float64) []ChurnEvent {
	if !(t1 > t0) {
		panic(fmt.Sprintf("grid: Outage window [%v, %v) is empty", t0, t1))
	}
	return []ChurnEvent{
		{T: t0, Node: node, Kind: ChurnCrash},
		{T: t1, Node: node, Kind: ChurnRejoin},
	}
}

// Join returns the event bringing a declared-but-absent node into the
// grid at t — the elastic-capacity primitive of experiment F10.
func Join(node string, t float64) ChurnEvent {
	return ChurnEvent{T: t, Node: node, Kind: ChurnJoin}
}
