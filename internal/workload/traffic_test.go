package workload

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func genTrace(t *testing.T, seed uint64) Trace {
	t.Helper()
	p := NewPoisson(0.5, seed)
	mix := []MixEntry{
		{App: "genome", Share: 2, Items: 40},
		{App: "image", Share: 1, Items: 25, Weight: 2, Floor: 2},
	}
	tr, err := GenerateTrace(p, mix, 300, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	return tr
}

// Record → replay must round-trip the trace exactly, bit for bit:
// float64 times survive Go's JSON encoding unchanged.
func TestTraceRoundTripExact(t *testing.T) {
	tr := genTrace(t, 42)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip changed the trace:\n want %+v\n got  %+v", tr[:3], back[:3])
	}
	// And a second encode of the replayed trace is byte-identical.
	var buf2 bytes.Buffer
	if err := back.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := tr.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded trace differs byte-wise")
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	a, b := genTrace(t, 7), genTrace(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed generation differs")
	}
	c := genTrace(t, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same trace")
	}
}

func TestGenerateTraceMix(t *testing.T) {
	tr := genTrace(t, 3)
	counts := map[string]int{}
	prev := -1.0
	for _, ev := range tr {
		if ev.T < prev {
			t.Fatal("arrivals out of order")
		}
		prev = ev.T
		counts[ev.App]++
		switch ev.App {
		case "genome":
			if ev.Items != 40 || ev.Weight != 0 || ev.Floor != 0 {
				t.Fatalf("genome event got wrong shape: %+v", ev)
			}
		case "image":
			if ev.Items != 25 || ev.Weight != 2 || ev.Floor != 2 {
				t.Fatalf("image event got wrong shape: %+v", ev)
			}
		default:
			t.Fatalf("unexpected app %q", ev.App)
		}
	}
	if counts["genome"] == 0 || counts["image"] == 0 {
		t.Fatalf("mix not exercised: %v", counts)
	}
	// 2:1 shares — expect genome clearly ahead.
	if counts["genome"] <= counts["image"] {
		t.Errorf("share weighting ignored: %v", counts)
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := `# recorded by gridsim -traffic poisson
{"t":1,"app":"genome","items":10}

` + "  \t\n" + `  # mid-stream comment
{"t":2.5,"app":"image","items":5,"weight":2}
`
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[0].App != "genome" || tr[1].Weight != 2 {
		t.Fatalf("parsed %+v", tr)
	}
}

func TestTraceValidate(t *testing.T) {
	bad := []Trace{
		{{T: -1, App: "genome", Items: 1}},
		{{T: 2, App: "genome", Items: 1}, {T: 1, App: "genome", Items: 1}},
		{{T: 1, App: "bogus", Items: 1}},
		{{T: 1, App: "genome", Items: 0}},
		{{T: 1, App: "genome", Items: 1, Weight: -1}},
		{{T: 1, App: "genome", Items: 1, Floor: -1}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trace accepted: %+v", i, tr)
		}
	}
	if err := (Trace{}).Validate(); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

func TestTraceJobSpecs(t *testing.T) {
	tr := Trace{
		{T: 0, App: "genome", Items: 10},
		{T: 0, App: "image", Items: 20, Weight: 3, Floor: 2},
	}
	specs, err := tr.JobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Name != "genome-0" || specs[1].Name != "image-1" {
		t.Errorf("names %q, %q", specs[0].Name, specs[1].Name)
	}
	if specs[1].Weight != 3 || specs[1].FloorNodes != 2 || specs[1].Items != 20 {
		t.Errorf("spec fields lost: %+v", specs[1])
	}
	if specs[0].CV != Genome().CV {
		t.Errorf("app CV not carried: %v", specs[0].CV)
	}
	if err := specs[0].Validate(8); err != nil {
		t.Errorf("generated spec invalid: %v", err)
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	p := NewPoisson(1, 1)
	if _, err := GenerateTrace(nil, nil, 10, 1); err == nil {
		t.Error("nil process accepted")
	}
	if _, err := GenerateTrace(p, nil, 0, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateTrace(p, []MixEntry{{App: "bogus", Share: 1}}, 10, 1); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := GenerateTrace(p, []MixEntry{{App: "genome", Share: 0}}, 10, 1); err == nil {
		t.Error("zero share accepted")
	}
	if _, err := GenerateTrace(p, []MixEntry{{App: "genome", Share: 1, Floor: -1}}, 10, 1); err == nil {
		t.Error("negative floor accepted")
	}
}

// An empty mix is DefaultMix, and a mix entry without an item count
// gives each job 50 items.
func TestGenerateTraceDefaults(t *testing.T) {
	tr, err := GenerateTrace(NewPoisson(1, 1), []MixEntry{{App: "genome", Share: 1}}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 || tr.TotalItems() != 50*len(tr) {
		t.Fatalf("%d jobs carry %d items, want 50 each", len(tr), tr.TotalItems())
	}
	def, err := GenerateTrace(NewPoisson(1, 1), nil, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]bool{}
	for _, m := range DefaultMix() {
		apps[m.App] = true
	}
	for _, ev := range def {
		if !apps[ev.App] {
			t.Fatalf("empty mix generated app %q, not in DefaultMix", ev.App)
		}
	}
}

// Trace I/O reports the writer's and the reader's errors, and JobSpecs
// an app it does not know.
func TestTraceIOErrors(t *testing.T) {
	if err := genTrace(t, 1).Write(failWriter{}); err == nil {
		t.Error("Write to a failing writer reported no error")
	}
	if _, err := ReadTrace(iotest.ErrReader(errors.New("disk gone"))); err == nil {
		t.Error("ReadTrace from a failing reader reported no error")
	}
	if _, err := (Trace{{App: "bogus", Items: 1}}).JobSpecs(); err == nil {
		t.Error("JobSpecs accepted an unknown app")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
