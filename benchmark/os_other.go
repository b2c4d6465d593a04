//go:build !linux

package main

import "time"

// processCPU is unavailable here; the runtime.cpu_* metrics read 0.
func processCPU() time.Duration { return 0 }

// preciseSleep falls back to the runtime's timers (see os_linux.go for
// what that costs the open-loop generator).
func preciseSleep(d time.Duration) { time.Sleep(d) }
