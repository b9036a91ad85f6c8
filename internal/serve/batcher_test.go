package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// passGate wraps a batcher's predict so a test decides when each pass
// runs: every pass announces its row count on entered and then blocks
// until the test sends on release. Holding one pass open is how a test
// makes later requests queue behind it, whatever the machine's timing.
// Once off is set, passes run straight through.
type passGate struct {
	entered chan int
	release chan struct{}
	off     atomic.Bool
}

// gatePasses installs a gate on b; call it before the first Submit.
func gatePasses[R, P any](b *Batcher[R, P]) *passGate {
	g := &passGate{entered: make(chan int), release: make(chan struct{})}
	inner := b.predict
	b.predict = func(model string, rows []R) ([]P, error) {
		if !g.off.Load() {
			g.entered <- len(rows)
			<-g.release
		}
		return inner(model, rows)
	}
	return g
}

// next waits for the next pass to reach predict and returns its rows;
// the pass stays held until open.
func (g *passGate) next(t *testing.T) int {
	t.Helper()
	select {
	case rows := <-g.entered:
		return rows
	case <-time.After(10 * time.Second):
		t.Fatal("no pass reached predict")
		return 0
	}
}

// open lets the held pass run.
func (g *passGate) open() { g.release <- struct{}{} }

// holdPass sends one request (a func returning its HTTP status) and
// returns once the request's pass is held inside predict. The returned
// func opens that pass and checks the request came back 200.
func holdPass(t *testing.T, g *passGate, request func() int) (release func()) {
	t.Helper()
	code := make(chan int, 1)
	go func() { code <- request() }()
	g.next(t)
	return func() {
		t.Helper()
		g.open()
		if c := <-code; c != http.StatusOK {
			t.Errorf("the request holding the pass came back %d", c)
		}
	}
}

// rideOnePass is the coalescing check: once n jobs have queued behind
// the held pass it releases that pass, and the n must then ride exactly
// one further pass together.
func rideOnePass[R, P any](t *testing.T, g *passGate, b *Batcher[R, P], model string, n int, release func()) {
	t.Helper()
	waitQueued(t, b, model, n)
	release()
	if rows := g.next(t); rows != n {
		t.Fatalf("the %d queued requests rode a %d-row pass", n, rows)
	}
	g.open()
}

// batcherState reads one model's queue under the batcher's lock.
func batcherState[R, P any](b *Batcher[R, P], model string) (queued, inflight, cohort int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[model]
	if q == nil {
		return 0, 0, 1
	}
	return len(q.jobs), q.inflight, q.cohort()
}

// eventually polls cond until it holds; what names it in the failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitQueued polls until n jobs sit in the model's queue.
func waitQueued[R, P any](t *testing.T, b *Batcher[R, P], model string, n int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d job(s) queued for %q", n, model), func() bool {
		queued, _, _ := batcherState(b, model)
		return queued == n
	})
}

// fires reads one kind's batched-pass counts per fire reason.
func fires(m *Metrics, kind string) [numFireReasons]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches[kind].fires
}

// double is the fake model of the batcher unit tests.
func double(_ string, rows []int) ([]int, error) {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = r * 2
	}
	return out, nil
}

// submitAll runs n concurrent single-row Submits and returns once every
// one has its answer.
func submitAll(t *testing.T, b *Batcher[int, int], n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := b.Submit(context.Background(), "m", []int{i}); err != nil || got[0] != 2*i {
				t.Errorf("submit %d: got %v, %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
}

// burst puts n concurrent jobs in flight at once — the first pass is
// held until every job it did not take has queued behind it — so the
// cohort is n afterwards, however the goroutines were scheduled. The
// gate is off when it returns.
func burst(t *testing.T, b *Batcher[int, int], n int) {
	t.Helper()
	g := gatePasses(b)
	done := make(chan struct{})
	go func() {
		defer close(done)
		submitAll(t, b, n)
	}()
	rows := g.next(t)
	waitQueued(t, b, "m", n-rows)
	g.off.Store(true)
	g.open()
	<-done
	if _, _, cohort := batcherState(b, "m"); cohort != n {
		t.Fatalf("cohort %d after %d concurrent jobs", cohort, n)
	}
}

// TestBatcherLoneCallerNeverWaits: a closed-loop caller is a cohort of
// one, so each of its passes fires on its own arrival instead of sitting
// out the arrival-gap timer (31 ms here; 50 of them would take 1.5 s).
func TestBatcherLoneCallerNeverWaits(t *testing.T) {
	m := NewMetrics()
	b := NewBatcher("t", time.Second, 64, double, m)
	start := time.Now()
	for i := 0; i < 50; i++ {
		if got, err := b.Submit(context.Background(), "m", []int{i}); err != nil || got[0] != 2*i {
			t.Fatalf("submit %d: got %v, %v", i, got, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("50 sequential submits took %v under a 1 s window", elapsed)
	}
	if f := fires(m, "t"); f[fireCohort] != 50 || f[fireGap]+f[fireWindow]+f[fireFull] != 0 {
		t.Fatalf("fires %v, want 50 by cohort", f)
	}
}

// TestBatcherLockStepCohort: once four workers have been seen in flight
// together, each round of four fires one 4-row pass on the fourth
// arrival; no round waits for the gap timer (31 ms; 40 rounds of it
// would take 1.2 s).
func TestBatcherLockStepCohort(t *testing.T) {
	const workers, rounds = 4, 40
	var sizes []int // written by the dispatcher goroutine only; read after the last answer
	m := NewMetrics()
	b := NewBatcher("t", time.Second, 64, func(model string, rows []int) ([]int, error) {
		sizes = append(sizes, len(rows))
		return double(model, rows)
	}, m)
	burst(t, b, workers)

	warm, before := len(sizes), fires(m, "t")
	start := time.Now()
	for r := 0; r < rounds; r++ {
		submitAll(t, b, workers)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("%d lock-step rounds took %v under a 1 s window", rounds, elapsed)
	}
	for _, size := range sizes[warm:] {
		if size != workers {
			t.Fatalf("pass sizes %v, want every pass %d rows", sizes[warm:], workers)
		}
	}
	after := fires(m, "t")
	if got := after[fireCohort] - before[fireCohort]; got != rounds || after[fireGap] != before[fireGap] || after[fireWindow] != before[fireWindow] {
		t.Fatalf("fires %v -> %v, want %d more by cohort and none by a timer", before, after, rounds)
	}
}

// TestBatcherCohortDecays: a burst inflates the cohort, and a lone
// caller gets back to no-wait within two epochs of its own requests.
func TestBatcherCohortDecays(t *testing.T) {
	m := NewMetrics()
	b := NewBatcher("t", 32*time.Millisecond, 64, double, m) // 1 ms gap: the waiting passes stay cheap
	burst(t, b, 8)
	lone := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := b.Submit(context.Background(), "m", []int{i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	lone(1)
	if f := fires(m, "t"); f[fireGap] == 0 {
		t.Fatalf("fires %v: a lone job under a cohort of 8 must wait for the gap", f)
	}
	lone(2*cohortEpoch - 1)
	before := fires(m, "t")
	lone(10)
	after := fires(m, "t")
	if after[fireCohort]-before[fireCohort] != 10 || after[fireGap] != before[fireGap] {
		t.Fatalf("fires %v -> %v: still waiting %d requests after the burst", before, after, 2*cohortEpoch)
	}
	if _, inflight, cohort := batcherState(b, "m"); inflight != 0 || cohort != 1 {
		t.Fatalf("inflight %d cohort %d, want 0 and 1", inflight, cohort)
	}
}

// TestBatcherDroppedJobIsNotAboard: a job dropped for a done context
// leaves the queue and the in-flight count, so it neither completes a
// later pass's cohort nor inflates it.
func TestBatcherDroppedJobIsNotAboard(t *testing.T) {
	var seen atomic.Int64
	m := NewMetrics()
	b := NewBatcher("t", time.Second, 64, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		return double(model, rows)
	}, m)
	burst(t, b, 2)
	seen.Store(0)

	// The abandoned job is still queued when the live one arrives, so
	// the two make up the cohort of 2; only the live one rides the pass.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(canceled, "m", []int{7, 8, 9}); err == nil {
		t.Fatal("canceled submit must return the context error")
	}
	before := fires(m, "t")
	if got, err := b.Submit(context.Background(), "m", []int{10}); err != nil || got[0] != 20 {
		t.Fatalf("live submit: got %v, %v", got, err)
	}
	if after := fires(m, "t"); after[fireCohort] != before[fireCohort]+1 {
		t.Fatalf("fires %v -> %v, want the live job fired by cohort", before, after)
	}
	if seen.Load() != 1 || m.BatchDropped("t") != 3 {
		t.Fatalf("predict saw %d rows, dropped %d; want 1 and 3", seen.Load(), m.BatchDropped("t"))
	}

	// The next lone job must not find the dropped one still aboard: one
	// of a cohort of two waits for the gap.
	before = fires(m, "t")
	if _, err := b.Submit(context.Background(), "m", []int{11}); err != nil {
		t.Fatal(err)
	}
	if after := fires(m, "t"); after[fireGap] != before[fireGap]+1 {
		t.Fatalf("fires %v -> %v, want the lone job fired by gap", before, after)
	}
	if queued, inflight, _ := batcherState(b, "m"); queued != 0 || inflight != 0 {
		t.Fatalf("queued %d inflight %d after the traffic drained", queued, inflight)
	}
}

// TestBatcherDropsCanceledJobs pins the cancellation contract: a job
// whose context is done before its pass fires is dropped from the queue
// — its rows never reach the predict callback — and the drop is counted
// in metrics.
func TestBatcherDropsCanceledJobs(t *testing.T) {
	var seen atomic.Int64
	m := NewMetrics()
	b := NewBatcher("t", 40*time.Millisecond, 64, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		out := make([]int, len(rows))
		for i, r := range rows {
			out[i] = r * 2
		}
		return out, nil
	}, m)

	// A job submitted with an already-canceled context returns
	// immediately and must be dropped when the pass forms.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(canceled, "m", []int{1, 2, 3}); err == nil {
		t.Fatal("canceled submit must return the context error")
	}

	// A live job in the same queue still gets its answer.
	got, err := b.Submit(context.Background(), "m", []int{10})
	if err != nil || len(got) != 1 || got[0] != 20 {
		t.Fatalf("live submit: got %v, %v", got, err)
	}

	if n := seen.Load(); n != 1 {
		t.Fatalf("predict saw %d rows, want 1 (canceled rows must not reach the pass)", n)
	}
	if d := m.BatchDropped("t"); d != 3 {
		t.Fatalf("dropped counter %d, want 3", d)
	}
}

// TestBatcherUnbatchedCanceled pins the Window<=0 path: an
// already-canceled context short-circuits before the pass runs.
func TestBatcherUnbatchedCanceled(t *testing.T) {
	var seen atomic.Int64
	b := NewBatcher("t", 0, 64, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		return rows, nil
	}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, "m", []int{1}); err == nil {
		t.Fatal("want context error")
	}
	if seen.Load() != 0 {
		t.Fatalf("predict ran %d rows for a canceled request", seen.Load())
	}
}

// TestBatcherCancellationUnderLoad hammers one queue from many
// goroutines, canceling half mid-flight, and checks conservation: every
// row submitted is either predicted or dropped, never both, and every
// surviving caller gets exactly its own answer. Run with -race in CI.
func TestBatcherCancellationUnderLoad(t *testing.T) {
	var seen atomic.Int64
	m := NewMetrics()
	b := NewBatcher("t", 2*time.Millisecond, 8, func(model string, rows []int) ([]int, error) {
		seen.Add(int64(len(rows)))
		time.Sleep(200 * time.Microsecond) // make passes slow enough to queue behind
		out := make([]int, len(rows))
		for i, r := range rows {
			out[i] = r + 1000
		}
		return out, nil
	}, m)

	const n = 200
	var wg sync.WaitGroup
	var okCount, cancelCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc = func() {}
			if i%2 == 0 {
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*100*time.Microsecond)
			}
			defer cancel()
			got, err := b.Submit(ctx, "m", []int{i})
			if err != nil {
				cancelCount.Add(1)
				return
			}
			if len(got) != 1 || got[0] != i+1000 {
				t.Errorf("request %d: got %v", i, got)
			}
			okCount.Add(1)
		}(i)
	}
	wg.Wait()
	// Abandoned jobs stay queued until the dispatcher's next take drops
	// them. Once the queue has drained every drop is accounted, and the
	// in-flight count must be back to zero: a leaked count would pin the
	// cohort high and leave every later lone caller waiting for the gap.
	// (A job whose cancellation raced its take may still be riding the
	// last pass when the queue empties, hence the poll on both.)
	eventually(t, "an empty queue and inflight == 0 after the traffic drained", func() bool {
		queued, inflight, _ := batcherState(b, "m")
		return queued == 0 && inflight == 0
	})

	if okCount.Load()+cancelCount.Load() != n {
		t.Fatalf("accounting: %d ok + %d canceled != %d", okCount.Load(), cancelCount.Load(), n)
	}
	// Conservation: rows predicted + rows dropped covers every canceled
	// submit that was dequeued; rows predicted must include every OK
	// submit. A canceled submit may still have been predicted (the
	// cancellation raced the pass), so predicted >= ok and
	// predicted+dropped <= n.
	predicted, dropped := seen.Load(), m.BatchDropped("t")
	if predicted < okCount.Load() {
		t.Fatalf("predicted %d rows < %d successful requests", predicted, okCount.Load())
	}
	if predicted+dropped > n {
		t.Fatalf("predicted %d + dropped %d exceeds %d submitted", predicted, dropped, n)
	}
	t.Logf("n=%d ok=%d canceled=%d predicted_rows=%d dropped_rows=%d",
		n, okCount.Load(), cancelCount.Load(), predicted, dropped)
}

// TestBatcherErrorFansOut pins that a failing pass reports the error to
// every job it coalesced (regression guard on the flush fan-out).
func TestBatcherErrorFansOut(t *testing.T) {
	b := NewBatcher("t", 5*time.Millisecond, 64, func(model string, rows []int) ([]int, error) {
		return nil, fmt.Errorf("boom")
	}, nil)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), "m", []int{i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != "boom" {
			t.Fatalf("job %d: err %v, want boom", i, err)
		}
	}
}
