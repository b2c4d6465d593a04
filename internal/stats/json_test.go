package stats

import (
	"encoding/json"
	"testing"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRowf("x", 1.5)
	tb.AddNote("a note")
	tb.MarkWallClock(1)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var d TableDoc
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Title != "demo" || len(d.Headers) != 2 || len(d.Rows) != 1 || len(d.Notes) != 1 ||
		len(d.WallClock) != 1 || d.WallClock[0] != 1 {
		t.Fatalf("round trip lost data: %+v", d)
	}
	if d.Rows[0][1] != "1.5" {
		t.Fatalf("cell formatting changed: %q", d.Rows[0][1])
	}
}

func TestEmptyTableJSONHasRows(t *testing.T) {
	data, err := json.Marshal(NewTable("empty"))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Rows []any `json:"rows"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Rows == nil {
		t.Fatal(`an empty table must marshal "rows": [], not null`)
	}
}

func TestSeriesJSON(t *testing.T) {
	s := NewSeries("thr")
	s.Append(0, 1)
	s.Append(1, 2.5)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var d SeriesDoc
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Name != "thr" || len(d.Points) != 2 || d.Points[1] != [2]float64{1, 2.5} {
		t.Fatalf("round trip lost data: %+v", d)
	}
}
