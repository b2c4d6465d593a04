package stats

import (
	"strings"
	"testing"
)

func TestSeriesAppendMonotone(t *testing.T) {
	s := NewSeries("x")
	s.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for backwards time")
		}
	}()
	s.Append(4, 1)
}

func TestWindowRate(t *testing.T) {
	// 10 events uniformly in [0,10): one per unit time.
	var events []float64
	for i := 0; i < 10; i++ {
		events = append(events, float64(i)+0.5)
	}
	r := WindowRate(events, 0, 10, 2)
	if r.Len() != 5 {
		t.Fatalf("windows = %d, want 5", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if r.At(i).V != 1.0 {
			t.Errorf("window %d rate = %v, want 1", i, r.At(i).V)
		}
	}
}

func TestWindowRateUnsortedInput(t *testing.T) {
	events := []float64{9, 1, 5, 3, 7}
	r := WindowRate(events, 0, 10, 10)
	if r.Len() != 1 || r.At(0).V != 0.5 {
		t.Fatalf("rate = %+v, want single window 0.5", r.Points())
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("tp")
	s.Append(1, 2)
	got := s.CSV()
	if !strings.HasPrefix(got, "t,tp\n") || !strings.Contains(got, "1.000000,2.000000") {
		t.Fatalf("CSV output malformed:\n%s", got)
	}
	if p := s.Points(); len(p) != 1 || p[0] != (Point{T: 1, V: 2}) {
		t.Fatalf("Points = %v", p)
	}
	if v := s.Values(); len(v) != 1 || v[0] != 2 {
		t.Fatalf("Values = %v", v)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRowf("alpha", 1.23456)
	tb.AddRow("beta", "x")
	tb.AddNote("n=%d", 2)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "1.235", "note: n=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if got := tb.Row(1)[0]; got != "beta" {
		t.Fatalf("Row(1)[0] = %q", got)
	}
	// Ragged rows: a short row is padded, a long one widens the table.
	tb.AddRow("gamma")
	tb.AddRow("delta", "y", "extra")
	if out := tb.String(); !strings.Contains(out, "gamma") || !strings.Contains(out, "extra") {
		t.Fatalf("ragged rows not rendered:\n%s", out)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`has,comma`, `has"quote`)
	got := tb.CSV()
	if !strings.Contains(got, `"has,comma"`) || !strings.Contains(got, `"has""quote"`) {
		t.Fatalf("CSV quoting wrong:\n%s", got)
	}
}
