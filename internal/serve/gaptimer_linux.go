package serve

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdGap is the gap timer on a one-shot timerfd (CLOCK_MONOTONIC,
// non-blocking) wrapped in an os.File, so the runtime's network poller
// watches it: the expiry wakes the process at kernel timer precision,
// where a runtime timer under a millisecond waits about a millisecond on
// an idle process. One reader goroutine parks in the poller on the
// descriptor (holding no P while it waits) and forwards each expiry to
// c. Arming is one timerfd_settime; nothing is disarmed after a pass,
// since the dispatcher discards a fire that comes before its deadline.
type timerfdGap struct {
	fd   int      // the descriptor, for timerfd_settime; f owns it
	f    *os.File // the same descriptor, registered with the poller
	c    chan time.Time
	done chan struct{} // closed when the reader has returned
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Now's monotonic reading uses

// newGapTimer returns a timerfd gap timer, or the runtime timer if the
// kernel will not create one (descriptor limit, seccomp): that
// dispatcher then waits as it did before timerfd, and answers the same.
func newGapTimer() gapTimer {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newRuntimeGap()
	}
	g := &timerfdGap{
		fd:   int(fd),
		f:    os.NewFile(fd, "gap-timerfd"),
		c:    make(chan time.Time, 1),
		done: make(chan struct{}),
	}
	go g.read()
	return g
}

// read forwards expiries until the descriptor is closed. The send never
// blocks: one undelivered fire already makes the dispatcher re-check.
func (g *timerfdGap) read() {
	defer close(g.done)
	var ticks [8]byte
	for {
		if _, err := g.f.Read(ticks[:]); err != nil {
			return
		}
		select {
		case g.c <- time.Now():
		default:
		}
	}
}

func (g *timerfdGap) fired() <-chan time.Time { return g.c }

// arm sets the one-shot expiry d from now. Re-arming also clears an
// expiry not yet read. A failed settime fires at once, so the dispatcher
// re-checks its deadline instead of waiting for an expiry that is not
// coming.
func (g *timerfdGap) arm(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(g.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		select {
		case g.c <- time.Now():
		default:
		}
	}
}

// close closes the descriptor, which wakes the parked reader, and waits
// for the reader to return: neither outlives the dispatcher.
func (g *timerfdGap) close() {
	g.f.Close()
	<-g.done
}
