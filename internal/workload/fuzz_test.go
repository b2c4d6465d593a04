package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the JSON-lines trace reader.
// Anything must come back as an error or a trace, never a panic, and a
// trace it accepts must survive Write → ReadTrace unchanged and convert
// to cluster job specs.
func FuzzReadTrace(f *testing.F) {
	for _, s := range []string{
		"# recorded by gridsim -traffic poisson\n" +
			`{"t":1,"app":"genome","items":10}` + "\n" +
			"\n" +
			"  \t\n" +
			"  # mid-stream comment\n" +
			`{"t":2.5,"app":"image","items":5,"weight":2}` + "\n",
		`{"t":0,"app":"video","items":1,"floor":3}`,
		`{"t":2,"app":"genome","items":1}` + "\n" + `{"t":1,"app":"genome","items":1}`,
		`{"t":1,"app":"bogus","items":1}`,
		`{"t":1,"app":"genome","items":0}`,
		`{"t":1,"app":"genome"`,
		``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
		if _, err := tr.JobSpecs(); err != nil {
			t.Fatalf("JobSpecs of an accepted trace: %v", err)
		}
	})
}
