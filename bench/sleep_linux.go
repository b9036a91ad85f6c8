package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The open-loop generator needs arrivals
// released within tens of microseconds of their due time, and an idle Go
// runtime rounds timer sleeps under a millisecond up to a millisecond
// (its network poller's timeout granularity), so this sleeps in the
// kernel instead.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}
