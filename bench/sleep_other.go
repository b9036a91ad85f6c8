//go:build !linux

package main

import "time"

// sleepUntil blocks until t (see sleep_linux.go for why Linux does not use
// time.Sleep here).
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
