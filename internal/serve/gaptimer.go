package serve

import "time"

// gapTimer is the one-shot wake-up of a dispatcher's fill stage: it
// delivers on fired once, d after the latest arm. The dispatcher checks
// every fire against its own deadline, so a fire that arrives early,
// late or twice costs a loop turn, never a wrong exit. It is not safe
// for concurrent use: the dispatcher that made it arms and closes it.
type gapTimer interface {
	fired() <-chan time.Time
	// arm (re)starts the timer to fire once, d from now (d > 0),
	// replacing any earlier arm that has not fired yet.
	arm(d time.Duration)
	// close releases the timer; it is not used again.
	close()
}

// runtimeGap is the gap timer on the Go runtime's own timers: what every
// platform without timerfd uses, and Linux when timerfd_create fails.
// An otherwise idle runtime rounds its sub-millisecond waits up to about
// a millisecond (the network poller's timeout granularity).
type runtimeGap struct{ t *time.Timer }

func newRuntimeGap() gapTimer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return runtimeGap{t}
}

func (g runtimeGap) fired() <-chan time.Time { return g.t.C }

// arm relies on the synchronous timer semantics of go >= 1.23 (declared
// in go.mod): after Reset, no fire from the earlier arm is delivered.
func (g runtimeGap) arm(d time.Duration) { g.t.Reset(d) }

func (g runtimeGap) close() { g.t.Stop() }
