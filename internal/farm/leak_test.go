package farm

import (
	"runtime"
	"testing"
	"time"

	"gridpipe/internal/conc/steal"
)

// watchGoroutines fails the test if, two seconds after it ends, more
// goroutines are alive than when it started: the head, the egress and
// the feeder a run starts must exit with the run. The
// process-wide executor is started first so its persistent
// workers are part of the baseline.
func watchGoroutines(t *testing.T) {
	t.Helper()
	steal.Default()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines alive, %d before the test:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
