// CSV import of real invocation traces. Two layouts arrive from the
// wild and both land in the same workload.Trace:
//
//   - Long layout: one row per job arrival with a header naming
//     t/app/items (weight and floor optional) — the CSV twin of the
//     JSON-lines format in traffic.go.
//
//   - Wide layout (invitro / Azure Functions style): one row per
//     function with metadata columns followed by numeric bucket
//     columns ("1","2",...,"1440") holding per-bucket invocation
//     counts. Each count expands to that many arrivals spread evenly
//     inside its bucket, so the imported trace reproduces the
//     production stream's burst structure at bucket resolution.
//
// The layout is auto-detected from the header: any all-digit column
// name means wide; otherwise a t/time column is required and the file
// is long. Nothing outside its tests imports CSV: the importer goes
// with them (ROADMAP item 8(e)).

package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// CSVTraceOptions tune TraceFromCSV. The zero value picks defaults.
type CSVTraceOptions struct {
	// App is the workload bound to arrivals when the file has no app
	// column (required for the wide layout; default "genome").
	App string
	// Items is the per-job item count when the file has no items
	// column (default 50, matching GenerateTrace's default shape).
	Items int
	// BucketSeconds is the wide layout's bucket width (default 60,
	// the Azure trace's per-minute resolution).
	BucketSeconds float64
	// MaxEvents caps the imported arrival count (default 1_000_000;
	// production wide traces can hold billions of invocations, and an
	// accidental full-file import should fail loudly, not OOM).
	MaxEvents int
}

func (o *CSVTraceOptions) fillDefaults() {
	if o.App == "" {
		o.App = "genome"
	}
	if o.Items <= 0 {
		o.Items = 50
	}
	if o.BucketSeconds <= 0 {
		o.BucketSeconds = 60
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 1_000_000
	}
}

// TraceFromCSV parses a CSV invocation trace, auto-detecting the long
// and wide layouts, and returns a validated Trace sorted by arrival
// time.
func TraceFromCSV(r io.Reader, opts CSVTraceOptions) (Trace, error) {
	opts.fillDefaults()
	if _, err := ByName(opts.App); err != nil {
		return nil, fmt.Errorf("workload: csv trace: %w", err)
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.Comment = '#'
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: csv trace: reading header: %w", err)
	}
	wide := false
	for _, col := range header {
		if isAllDigits(strings.TrimSpace(col)) {
			wide = true
			break
		}
	}
	var tr Trace
	if wide {
		tr, err = csvWide(cr, header, opts)
	} else {
		tr, err = csvLong(cr, header, opts)
	}
	if err != nil {
		return nil, err
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].T < tr[j].T })
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// csvLong parses the one-row-per-arrival layout. Column names are
// case-insensitive; t/time/timestamp name the arrival time, app the
// workload, items the job size, weight and floor the fairness fields.
func csvLong(cr *csv.Reader, header []string, opts CSVTraceOptions) (Trace, error) {
	col := map[string]int{}
	for i, name := range header {
		col[strings.ToLower(strings.TrimSpace(name))] = i
	}
	tIdx, ok := firstOf(col, "t", "time", "timestamp")
	if !ok {
		return nil, fmt.Errorf("workload: csv trace: no t/time column in header %v (and no numeric bucket columns)", header)
	}
	appIdx, hasApp := col["app"]
	itemsIdx, hasItems := col["items"]
	weightIdx, hasWeight := col["weight"]
	floorIdx, hasFloor := col["floor"]
	var tr Trace
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv trace: line %d: %w", line, err)
		}
		ev := TraceEvent{App: opts.App, Items: opts.Items}
		ev.T, err = strconv.ParseFloat(strings.TrimSpace(rec[tIdx]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: csv trace: line %d: bad time %q", line, rec[tIdx])
		}
		if hasApp {
			ev.App = strings.TrimSpace(rec[appIdx])
		}
		if hasItems {
			ev.Items, err = strconv.Atoi(strings.TrimSpace(rec[itemsIdx]))
			if err != nil {
				return nil, fmt.Errorf("workload: csv trace: line %d: bad items %q", line, rec[itemsIdx])
			}
		}
		if hasWeight && strings.TrimSpace(rec[weightIdx]) != "" {
			ev.Weight, err = strconv.ParseFloat(strings.TrimSpace(rec[weightIdx]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: csv trace: line %d: bad weight %q", line, rec[weightIdx])
			}
		}
		if hasFloor && strings.TrimSpace(rec[floorIdx]) != "" {
			ev.Floor, err = strconv.Atoi(strings.TrimSpace(rec[floorIdx]))
			if err != nil {
				return nil, fmt.Errorf("workload: csv trace: line %d: bad floor %q", line, rec[floorIdx])
			}
		}
		tr = append(tr, ev)
		if len(tr) > opts.MaxEvents {
			return nil, fmt.Errorf("workload: csv trace: more than %d events (raise CSVTraceOptions.MaxEvents)", opts.MaxEvents)
		}
	}
}

// csvWide parses the per-function bucket-count layout. The all-digit
// header columns are the buckets, ordered by their numeric value;
// every other column is function metadata and ignored. A count k in
// bucket b becomes k arrivals evenly spaced in the interior of
// [(b-1)·w, b·w) — deterministic, no sampling randomness.
func csvWide(cr *csv.Reader, header []string, opts CSVTraceOptions) (Trace, error) {
	type bucket struct {
		col   int
		index int // 1-based bucket number from the header
	}
	var buckets []bucket
	for i, name := range header {
		name = strings.TrimSpace(name)
		if isAllDigits(name) {
			n, err := strconv.Atoi(name)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("workload: csv trace: bad bucket column %q", name)
			}
			buckets = append(buckets, bucket{col: i, index: n})
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].index < buckets[j].index })
	w := opts.BucketSeconds
	var tr Trace
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv trace: line %d: %w", line, err)
		}
		for _, b := range buckets {
			cell := strings.TrimSpace(rec[b.col])
			if cell == "" || cell == "0" {
				continue
			}
			k, err := strconv.Atoi(cell)
			if err != nil || k < 0 {
				return nil, fmt.Errorf("workload: csv trace: line %d: bad count %q in bucket %d", line, cell, b.index)
			}
			start := float64(b.index-1) * w
			gap := w / float64(k+1)
			for j := 0; j < k; j++ {
				tr = append(tr, TraceEvent{
					T:     start + float64(j+1)*gap,
					App:   opts.App,
					Items: opts.Items,
				})
			}
			if len(tr) > opts.MaxEvents {
				return nil, fmt.Errorf("workload: csv trace: more than %d events (raise CSVTraceOptions.MaxEvents)", opts.MaxEvents)
			}
		}
	}
}

func firstOf(col map[string]int, names ...string) (int, bool) {
	for _, n := range names {
		if i, ok := col[n]; ok {
			return i, true
		}
	}
	return 0, false
}

// ScaleTime returns a copy of the trace with every arrival time
// multiplied by factor: one recorded stream replayed at another offered
// load with its burst structure preserved.
func (tr Trace) ScaleTime(factor float64) (Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: ScaleTime factor must be positive, got %v", factor)
	}
	out := make(Trace, len(tr))
	for i, ev := range tr {
		ev.T *= factor
		out[i] = ev
	}
	return out, nil
}

// Span returns the time of the last arrival, and TotalItems the summed
// item count — together the trace's native offered load.
func (tr Trace) Span() float64 {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].T
}

// TotalItems sums the per-job item counts.
func (tr Trace) TotalItems() int {
	n := 0
	for _, ev := range tr {
		n += ev.Items
	}
	return n
}
