package serve

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestBatcherGapExitIsPrompt: a pass that leaves by gap under a 2 ms
// Window (62.5 us grace) waits for the grace and the kernel's timer
// slack, not for the runtime's ~1 ms rounding of a sub-millisecond
// timer on an idle process.
func TestBatcherGapExitIsPrompt(t *testing.T) {
	m := NewMetrics()
	b := NewBatcher("t", 2*time.Millisecond, 64, double, m)
	took := loneGapSubmits(t, b, m, 50)
	slices.Sort(took)
	p50 := took[len(took)/2]
	t.Logf("gap exit Submit: p50 %v, min %v, max %v", p50, took[0], took[len(took)-1])
	if p50 > 500*time.Microsecond {
		t.Fatalf("median Submit %v for a gap exit, want under 0.5 ms (all: %v)", p50, took)
	}
}

// TestBatcherRetiredDispatcherClosesTimerfd: once traffic drains and the
// dispatcher retires, its timerfd is closed and its reader has returned.
func TestBatcherRetiredDispatcherClosesTimerfd(t *testing.T) {
	m := NewMetrics()
	b := NewBatcher("t", 2*time.Millisecond, 64, double, m)
	var (
		mu   sync.Mutex
		made []gapTimer // one per dispatcher that waited
	)
	b.newGap = func() gapTimer {
		g := newGapTimer()
		mu.Lock()
		defer mu.Unlock()
		made = append(made, g)
		return g
	}
	loneGapSubmits(t, b, m, 5)
	eventually(t, "the dispatcher to retire", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return !b.queues["m"].running
	})
	mu.Lock()
	defer mu.Unlock()
	for _, g := range made {
		tfd, ok := g.(*timerfdGap)
		if !ok {
			t.Skip("timerfd_create failed here; the dispatcher runs on the runtime timer")
		}
		select {
		case <-tfd.done:
		case <-time.After(10 * time.Second):
			t.Fatal("the timerfd reader outlived its dispatcher")
		}
		link := filepath.Join("/proc/self/fd", strconv.Itoa(tfd.fd))
		if target, err := os.Readlink(link); err == nil && target == "anon_inode:[timerfd]" {
			t.Fatalf("%s is still a timerfd after its dispatcher retired", link)
		}
	}
}
