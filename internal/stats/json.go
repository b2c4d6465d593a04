package stats

import "encoding/json"

// TableDoc is the machine-readable rendering of a Table: the same
// cells the text renderer aligns, as JSON-marshalable data. Cells stay
// strings — the table layer formats, the consumer parses — so the
// JSON output is exactly as reproducible as the printed tables.
type TableDoc struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// WallClock lists the columns measured on the wall clock.
	WallClock []int `json:"wall_clock,omitempty"`
}

// Doc returns the table's machine-readable form.
func (t *Table) Doc() TableDoc {
	d := TableDoc{Title: t.Title, Headers: t.headers, Rows: t.rows, Notes: t.notes, WallClock: t.wallClock}
	if d.Rows == nil {
		d.Rows = [][]string{}
	}
	return d
}

// MarshalJSON renders the table as its TableDoc.
func (t *Table) MarshalJSON() ([]byte, error) { return json.Marshal(t.Doc()) }

// SeriesDoc is the machine-readable rendering of a Series.
type SeriesDoc struct {
	Name string `json:"name"`
	// Points holds [t, v] pairs in time order.
	Points [][2]float64 `json:"points"`
}

// Doc returns the series' machine-readable form.
func (s *Series) Doc() SeriesDoc {
	d := SeriesDoc{Name: s.Name, Points: make([][2]float64, len(s.pts))}
	for i, p := range s.pts {
		d.Points[i] = [2]float64{p.T, p.V}
	}
	return d
}

// MarshalJSON renders the series as its SeriesDoc.
func (s *Series) MarshalJSON() ([]byte, error) { return json.Marshal(s.Doc()) }
