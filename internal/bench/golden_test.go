package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
)

// goldenPath holds the output of `go run ./cmd/pipebench -all -json`
// at seed 42. After a change that moves a cell on purpose, regenerate
// it with that command and quote the moved cells this test lists.
const goldenPath = "../../testdata/golden/pipebench.json"

// TestPaperTablesGolden runs every experiment that does not measure
// the wall clock at seed 42 and compares its tables and series with
// the golden, cell by cell. Cells in columns a table marks as
// wall-clock are not compared. A mismatch lists every moved cell as
// experiment/table/row/column: old → new.
func TestPaperTablesGolden(t *testing.T) {
	golden := readGolden(t)
	for _, e := range All() {
		if e.WallClock {
			continue
		}
		res := run42(e)
		want, ok := golden[e.ID]
		if !ok {
			t.Errorf("%s: not in %s", e.ID, goldenPath)
			continue
		}
		got := res.Doc()
		maskWallClock(&want)
		maskWallClock(&got)
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if bytes.Equal(wb, gb) {
			continue
		}
		moved := diffDocs(want, got)
		if len(moved) == 0 {
			moved = []string{fmt.Sprintf("%s: layout differs:\n  old %s\n  new %s", e.ID, wb, gb)}
		}
		for _, m := range moved {
			t.Error(m)
		}
	}
}

// readGolden decodes the golden's stream of result documents by ID.
func readGolden(t *testing.T) map[string]ResultDoc {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]ResultDoc{}
	dec := json.NewDecoder(f)
	for {
		var d ResultDoc
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out[d.ID] = d
	}
}

// maskWallClock blanks every cell in a wall-clock column.
func maskWallClock(d *ResultDoc) {
	for _, tb := range d.Tables {
		for _, c := range tb.WallClock {
			for _, row := range tb.Rows {
				if c < len(row) {
					row[c] = ""
				}
			}
		}
	}
}

// diffDocs lists the cells, notes and series points that differ
// between two documents of the same experiment whose tables and
// series line up.
func diffDocs(old, cur ResultDoc) []string {
	var out []string
	moved := func(where string, a, b any) {
		out = append(out, fmt.Sprintf("%s/%s: %v → %v", old.ID, where, a, b))
	}
	if len(old.Tables) != len(cur.Tables) || len(old.Series) != len(cur.Series) {
		return nil
	}
	for i, ot := range old.Tables {
		ct := cur.Tables[i]
		if len(ot.Rows) != len(ct.Rows) || len(ot.Notes) != len(ct.Notes) {
			return nil
		}
		for r, orow := range ot.Rows {
			crow := ct.Rows[r]
			if len(orow) != len(crow) {
				return nil
			}
			for c := range orow {
				if orow[c] != crow[c] {
					col := fmt.Sprint(c)
					if c < len(ot.Headers) {
						col = ot.Headers[c]
					}
					moved(fmt.Sprintf("%s/%d/%s", ot.Title, r, col), orow[c], crow[c])
				}
			}
		}
		for n := range ot.Notes {
			if ot.Notes[n] != ct.Notes[n] {
				moved(fmt.Sprintf("%s/note %d", ot.Title, n), ot.Notes[n], ct.Notes[n])
			}
		}
	}
	for i, osr := range old.Series {
		cs := cur.Series[i]
		if len(osr.Points) != len(cs.Points) {
			return nil
		}
		for p := range osr.Points {
			if osr.Points[p] != cs.Points[p] {
				moved(fmt.Sprintf("series %s/%d", osr.Name, p), osr.Points[p], cs.Points[p])
			}
		}
	}
	return out
}
