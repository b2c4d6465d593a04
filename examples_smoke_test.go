package gridpipe_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"testing"
	"time"
)

// raceEnabled is set by smoke_race_test.go when the test binary was
// built with -race, so the example binaries get race-instrumented too
// (their live goroutine pipelines are the point of running them).
var raceEnabled bool

// smokeRun is one invocation of a smoke-tested binary. With a golden,
// its stdout must equal testdata/golden/<golden> byte for byte.
type smokeRun struct {
	args   []string
	golden string
}

// smokeBinaries are the binaries TestExamplesSmoke builds and runs.
// The simulated ones run in virtual time, so their output is pinned by
// a golden; quickstart and genomics print live wall-clock timings and
// are only checked for output.
var smokeBinaries = []struct {
	pkg  string
	runs []smokeRun
}{
	{"examples/quickstart", []smokeRun{{}}},
	{"examples/imagepipeline", []smokeRun{{golden: "imagepipeline.txt"}}},
	{"examples/videostream", []smokeRun{{golden: "videostream.txt"}}},
	{"examples/genomics", []smokeRun{{}}},
	{"cmd/adaptpipe", []smokeRun{
		{golden: "adaptpipe-default.txt"},
		{args: []string{"-kill-restart", "-workload", "genome", "-items", "2000"},
			golden: "adaptpipe-kill-restart.txt"},
		{args: []string{"-grid", "testdata/golden/churn-grid.json", "-policy", "reactive", "-duration", "200"},
			golden: "adaptpipe-churn.txt"},
	}},
	{"cmd/gridsim", []smokeRun{
		{args: []string{"-config", "testdata/golden/churn-grid.json", "-horizon", "200"},
			golden: "gridsim-churn.txt"},
		{args: []string{"-preset", "loaded"}, golden: "gridsim-loaded.txt"},
		{args: []string{"-traffic", "bursty", "-rate", "0.5", "-horizon", "120"},
			golden: "gridsim-bursty.txt"},
	}},
}

// TestExamplesSmoke builds and runs every example binary, adaptpipe and
// gridsim end to end: the examples are living documentation and must keep
// producing the same output (not just compiling) as the layers under
// them are refactored. Under `go test -race` the binaries are built
// with -race as well.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example binaries")
	}
	bindir := t.TempDir()
	for _, b := range smokeBinaries {
		b := b
		name := path.Base(b.pkg)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(bindir, name)
			args := []string{"build", "-o", bin}
			if raceEnabled {
				args = append(args, "-race")
			}
			build := exec.Command("go", append(args, "./"+b.pkg)...)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			for _, r := range b.runs {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				var stderr bytes.Buffer
				run := exec.CommandContext(ctx, bin, r.args...)
				run.Stderr = &stderr
				out, err := run.Output()
				cancel()
				if err != nil {
					t.Fatalf("run %v: %v\n%s%s", r.args, err, out, stderr.Bytes())
				}
				if len(out) == 0 {
					t.Fatalf("run %v produced no output", r.args)
				}
				if r.golden == "" {
					continue
				}
				want, err := os.ReadFile(filepath.Join("testdata", "golden", r.golden))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Errorf("run %v: stdout differs from testdata/golden/%s\n--- got ---\n%s--- want ---\n%s",
						r.args, r.golden, out, want)
				}
			}
		})
	}
}
