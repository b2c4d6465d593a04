// Package bench is the experiment harness: it regenerates every table
// and figure of the reconstructed evaluation suite (see DESIGN.md's
// experiment index and the mismatch note explaining why the suite is a
// reconstruction).
//
// Each experiment is deterministic for a given seed and returns tables
// (printed like the paper's) and series (the data behind figures,
// exportable as CSV). An experiment cannot fail: it runs on arguments
// written into its source, so an error from a call it makes is a bug,
// and it panics naming the call rather than returning the error.
// cmd/pipebench exposes them on the command line; the root package's
// bench_test.go wires one testing.B benchmark per experiment.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"gridpipe/internal/stats"
)

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Series []*stats.Series
}

// ResultDoc is the machine-readable rendering of one experiment
// result, emitted by pipebench -json.
type ResultDoc struct {
	ID     string            `json:"id"`
	Title  string            `json:"title"`
	Tables []stats.TableDoc  `json:"tables"`
	Series []stats.SeriesDoc `json:"series,omitempty"`
}

// Doc returns the result's machine-readable form.
func (r *Result) Doc() ResultDoc {
	d := ResultDoc{ID: r.ID, Title: r.Title, Tables: []stats.TableDoc{}}
	for _, t := range r.Tables {
		d.Tables = append(d.Tables, t.Doc())
	}
	for _, s := range r.Series {
		d.Series = append(d.Series, s.Doc())
	}
	return d
}

// String renders every table and a short series inventory.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "series %q: %d points\n", s.Name, s.Len())
	}
	return b.String()
}

// Experiment is one reproducible table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed uint64) *Result
	// WallClock marks experiments that measure real time on this
	// machine (the live-runtime experiments): their tables vary
	// between runs, so the tables golden leaves them out.
	WallClock bool
}

// registry of all experiments, populated by the experiment files.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}
