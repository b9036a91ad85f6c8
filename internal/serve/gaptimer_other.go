//go:build !linux

package serve

// newGapTimer is the runtime timer where timerfd does not exist.
func newGapTimer() gapTimer { return newRuntimeGap() }
