package gridpipe_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// raceEnabled is set by smoke_race_test.go when the test binary was
// built with -race, so the example binaries get race-instrumented too
// (their live goroutine pipelines are the point of running them).
var raceEnabled bool

// TestExamplesSmoke builds and runs every example binary end to end:
// the examples are living documentation and must keep producing output
// (not just compiling) as the layers under them are refactored. Under
// `go test -race` the examples are built with -race as well.
func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example binaries")
	}
	examples := []string{"quickstart", "imagepipeline", "videostream", "genomics"}
	bindir := t.TempDir()
	for _, name := range examples {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(bindir, name)
			args := []string{"build", "-o", bin}
			if raceEnabled {
				args = append(args, "-race")
			}
			build := exec.Command("go", append(args, "./examples/"+name)...)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			run := exec.CommandContext(ctx, bin)
			out, err := run.CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if len(out) == 0 {
				t.Fatal("example produced no output")
			}
		})
	}
}
