package main

import (
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// preciseSleep blocks the calling thread in the kernel for d. time.Sleep
// parks the goroutine on the runtime's timers, which an idle runtime
// services through a poll with millisecond timeouts: a 40 µs sleep then
// takes up to 1 ms, and an open-loop generator built on it offers
// bunches of ~25 items once a millisecond instead of a Poisson stream.
// nanosleep is late by the kernel's timer slack (~50 µs) and, like
// time.Sleep, neither spins nor yields.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// A signal may cut the sleep short (EINTR); pace re-reads the clock
	// and sleeps the remainder, so the error needs no handling.
	_ = syscall.Nanosleep(&ts, nil)
}
