package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"noble/internal/obs"
)

// PredictFunc answers one coalesced forward pass for a named model: R is
// the per-request row type (a fingerprint, a path), P the per-row
// prediction.
type PredictFunc[R, P any] func(model string, rows []R) ([]P, error)

// Batcher is the micro-batching engine: concurrent requests for the same
// model are packed into one batch and answered by a single batched
// forward pass. It is generic over the row and prediction types, so the
// same engine coalesces localize traffic (fingerprint rows through
// (*core.WiFiModel).PredictBatch) and track/session traffic (imu.Path
// rows through (*core.IMUModel).PredictPaths).
//
// It runs continuous batching: a per-model dispatcher goroutine
// accumulates requests and fires a pass at the first of four exits —
// MaxBatch rows are queued ("full"), as many jobs are queued as the
// model has recently had in flight at once ("cohort"), the arrival
// stream pauses ("gap"), or Window has passed since the pass's first
// request ("window") — and starts accumulating the next pass as soon as
// the results have fanned out. The cohort exit is what makes waiting
// load-aware: a lone closed-loop caller is a cohort of one and never
// waits, N lock-step callers fire on the N-th arrival, and uncoordinated
// traffic, whose in-flight peak stays above what is queued at any
// instant, falls through to the gap and Window timers. Window is the
// upper bound on waiting for company the batcher has reason to expect.
// Under sustained load passes run back to back with whatever arrived
// during the previous pass. After Window of complete silence the
// dispatcher exits; the next request starts a fresh one.
//
// With Window <= 0 every request runs its own pass (the unbatched
// baseline). Results are split back per request in arrival order. The
// model is resolved at flush time, so a batch formed across a hot reload
// simply runs on the newest generation.
//
// A model's passes run one at a time, but a pass is not confined to one
// core: a localize pass of more than 16 rows runs as 16-row chunks on the
// dispatcher goroutine and up to GOMAXPROCS−1 helpers inside
// (*core.WiFiModel).PredictMatrix, one generation for the whole pass.
// Smaller passes and every track pass run on the dispatcher alone. A
// panic in a helper's chunk is re-raised on the dispatcher, where run
// turns it into an inference error like any other.
type Batcher[R, P any] struct {
	Window   time.Duration
	MaxBatch int

	kind    string // metrics label ("localize", "track")
	predict PredictFunc[R, P]
	metrics *Metrics
	newGap  func() gapTimer // makes a dispatcher's gap timer

	mu     sync.Mutex
	queues map[string]*batchQueue[R, P]
}

// batchJob is one request waiting for its pass. ctx is the submitting
// request's context: the dispatcher drops a job whose ctx is already
// done when its pass forms, so an abandoned request (client gone,
// deadline expired while queued) never consumes forward-pass rows. It
// also carries the request's trace, which is how the dispatcher
// stitches the shared pass back into every rider's timeline.
type batchJob[R, P any] struct {
	ctx   context.Context
	rows  []R
	enq   time.Time // when Submit queued the job (queue_wait span start)
	preds []P
	err   error
	done  chan struct{}
}

// batchQueue accumulates jobs for one model between passes.
type batchQueue[R, P any] struct {
	jobs    []*batchJob[R, P]
	rows    int
	running bool          // a dispatcher goroutine is active for this model
	notify  chan struct{} // cap 1; poked on every enqueue

	// The cohort estimate: inflight counts jobs submitted and not yet
	// answered or dropped (queued plus riding the running pass);
	// peakCur/peakPrev are its maxima over the current and the previous
	// epoch of cohortEpoch passes.
	inflight, peakCur, peakPrev, passes int
}

// cohortEpoch is how many passes one epoch of the in-flight peak spans.
// The estimate covers two epochs, so a burst stops inflating a lone
// caller's cohort within 2*cohortEpoch of its own requests.
const cohortEpoch = 64

// cohort is how many jobs the model has recently had in flight at once:
// the company a forming pass can expect. A stale or inflated value only
// defers the pass to the gap and Window exits.
func (q *batchQueue[R, P]) cohort() int {
	return max(q.peakCur, q.peakPrev, 1)
}

// NewBatcher builds a batcher over a predict callback. kind labels the
// batcher's passes in /metrics; metrics may be nil.
func NewBatcher[R, P any](kind string, window time.Duration, maxBatch int, predict PredictFunc[R, P], metrics *Metrics) *Batcher[R, P] {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if metrics != nil {
		metrics.registerBatchKind(kind)
	}
	return &Batcher[R, P]{
		Window:   window,
		MaxBatch: maxBatch,
		kind:     kind,
		predict:  predict,
		metrics:  metrics,
		newGap:   newGapTimer,
		queues:   make(map[string]*batchQueue[R, P]),
	}
}

// Submit predicts rows on the named model, sharing a forward pass with
// concurrent callers when batching is enabled. It blocks until the pass
// containing the request completes or ctx is done.
func (b *Batcher[R, P]) Submit(ctx context.Context, model string, rows []R) ([]P, error) {
	if b.Window <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		preds, err := b.run(model, rows)
		obs.AddBatchSpan(ctx, b.kind, len(rows), start, time.Now())
		return preds, err
	}

	job := &batchJob[R, P]{ctx: ctx, rows: rows, enq: time.Now(), done: make(chan struct{})}
	b.mu.Lock()
	q := b.queues[model]
	if q == nil {
		q = &batchQueue[R, P]{notify: make(chan struct{}, 1)}
		b.queues[model] = q
	}
	q.jobs = append(q.jobs, job)
	q.rows += len(rows)
	q.inflight++
	q.peakCur = max(q.peakCur, q.inflight)
	spawn := !q.running
	if spawn {
		q.running = true
	}
	b.mu.Unlock()
	if spawn {
		go b.dispatch(model, q)
	} else {
		select {
		case q.notify <- struct{}{}:
		default: // a wakeup is already pending
		}
	}

	select {
	case <-job.done:
		return job.preds, job.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch drains one model's queue in passes until the queue stays
// silent for a full Window, then exits.
//
// A forming pass fires at the first of: MaxBatch rows queued; as many
// jobs queued as the model's cohort (see batchQueue.cohort), i.e. all
// the company recent traffic says to expect is aboard; a pause in the
// arrival stream longer than the grace threshold, a small fraction of
// Window; Window since the stage began. The last two are one deadline,
// min(last arrival + grace, stage start + Window), kept by one gap timer
// (gapTimer): an arrival only records its time, and a fire counts only
// once the deadline has passed — an early one re-arms for the remainder.
// On Linux the timer is a timerfd the runtime's poller watches, so a
// "gap" exit costs the grace plus the kernel's timer slack: a lone
// Submit that leaves by "gap" under a 2 ms Window (62.5 us grace) takes
// about 0.08 ms at p50 (TestBatcherGapExitIsPrompt). The runtime timer
// it replaced, still the fallback elsewhere, rounds a sub-millisecond
// wait up to about 1 ms on an idle process (1.1 ms there). The timer
// is made by the first pass that waits and closed when the dispatcher
// retires; a pass that fires by "full" or "cohort" without waiting
// makes no system call. The cohort only ever adds an earlier exit: when
// it is stale or inflated the pass falls back to the timer, never to a
// smaller batch than it would have formed.
func (b *Batcher[R, P]) dispatch(model string, q *batchQueue[R, P]) {
	idleTimer := time.NewTimer(b.Window)
	defer idleTimer.Stop()
	// The gap threshold needs to exceed the per-request ingest time (so a
	// streaming cohort is not split) while staying far below the pass
	// compute time (so the tail wait is cheap); a small fraction of the
	// window fits both on current hardware.
	grace := b.Window / 32
	if grace < 40*time.Microsecond {
		grace = 40 * time.Microsecond
	}
	var (
		gap   gapTimer  // made by the first pass that waits
		armed time.Time // when gap fires next; zero once that fire is taken
	)
	defer func() {
		if gap != nil {
			gap.close()
		}
	}()
	for {
		// Idle stage: wait for the first job of the next pass. A full
		// Window of silence retires the dispatcher.
		idleTimer.Reset(b.Window)
		idle := false
		for !idle {
			b.mu.Lock()
			rows := q.rows
			b.mu.Unlock()
			if rows > 0 {
				break
			}
			select {
			case <-q.notify:
			case <-idleTimer.C:
				idle = true
			}
		}

		// A job that slips in as the idle timer fires leaves on that timer.
		reason := fireWindow
		if !idle {
			// Fill stage: accumulate until the pass is full, the cohort is
			// aboard, the arrival stream pauses or Window runs out.
			start := time.Now()
			last := start
			for {
				b.mu.Lock()
				rows, aboard := q.rows, len(q.jobs) >= q.cohort()
				b.mu.Unlock()
				if rows >= b.MaxBatch {
					reason = fireFull
					break
				}
				if aboard {
					reason = fireCohort
					break
				}
				deadline, why := last.Add(grace), fireGap
				if end := start.Add(b.Window); end.Before(deadline) {
					deadline, why = end, fireWindow
				}
				wait := time.Until(deadline)
				if wait <= 0 {
					reason = why
					break
				}
				if gap == nil {
					gap = b.newGap()
				}
				// A pending fire at or before the deadline will do: it
				// re-arms when it comes. A later one must be brought forward.
				if armed.IsZero() || armed.After(deadline) {
					gap.arm(wait)
					armed = deadline
				}
				select {
				case <-q.notify:
					last = time.Now()
				case <-gap.fired():
					armed = time.Time{}
				}
			}
		}

		b.mu.Lock()
		if len(q.jobs) == 0 {
			// A full Window of silence: retire this dispatcher.
			q.running = false
			b.mu.Unlock()
			return
		}
		// Take whole jobs up to MaxBatch rows; a single oversized job
		// still goes through as its own pass. A job whose submitter is
		// already gone (context canceled or deadline expired while
		// queued) is dropped here instead of taken: its submitter has
		// returned, so running it would only waste forward-pass rows.
		var (
			take    []*batchJob[R, P]
			taken   int
			dropped int
		)
		for len(q.jobs) > 0 {
			j := q.jobs[0]
			if j.ctx.Err() != nil {
				q.jobs = q.jobs[1:]
				q.rows -= len(j.rows)
				q.inflight--
				dropped += len(j.rows)
				j.err = j.ctx.Err()
				close(j.done)
				continue
			}
			if len(take) > 0 && taken+len(j.rows) > b.MaxBatch {
				break
			}
			take = append(take, j)
			taken += len(j.rows)
			q.jobs = q.jobs[1:]
		}
		q.rows -= taken
		if len(q.jobs) == 0 {
			q.jobs = nil // let the drained backing array be reclaimed
		}
		b.mu.Unlock()

		if dropped > 0 && b.metrics != nil {
			b.metrics.ObserveBatchDrop(b.kind, dropped)
		}
		if len(take) > 0 {
			if b.metrics != nil {
				b.metrics.ObserveBatchFire(b.kind, reason)
			}
			b.flush(model, q, take)
		}
	}
}

// flush runs one forward pass for the coalesced jobs and fans results
// back out in arrival order. Each rider's trace gets two spans from
// here: its own queue_wait (enqueue to pass start) and the shared
// batch_pass, annotated with the pass's kind and total row count —
// recorded before done is closed, so the submitting goroutine never
// observes its job finished with the spans still missing. The riders
// leave the in-flight count before done is closed too: a closed-loop
// caller's next Submit must not find its own previous job still counted.
func (b *Batcher[R, P]) flush(model string, q *batchQueue[R, P], jobs []*batchJob[R, P]) {
	var rows []R
	for _, j := range jobs {
		rows = append(rows, j.rows...)
	}
	passStart := time.Now()
	preds, err := b.run(model, rows)
	passEnd := time.Now()
	b.mu.Lock()
	q.inflight -= len(jobs)
	if q.passes++; q.passes == cohortEpoch {
		q.peakPrev, q.peakCur, q.passes = q.peakCur, q.inflight, 0
	}
	b.mu.Unlock()
	off := 0
	for _, j := range jobs {
		if err != nil {
			j.err = err
		} else {
			j.preds = preds[off : off+len(j.rows)]
		}
		off += len(j.rows)
		obs.AddSpan(j.ctx, obs.StageQueueWait, j.enq, passStart)
		obs.AddBatchSpan(j.ctx, b.kind, len(rows), passStart, passEnd)
		close(j.done)
	}
}

// run invokes the predict callback for one batch, converting panics (e.g.
// a shape mismatch that slipped past validation) into errors so one bad
// request cannot take down the server, and records the batch size.
func (b *Batcher[R, P]) run(model string, rows []R) (preds []P, err error) {
	defer func() {
		if r := recover(); r != nil {
			preds, err = nil, fmt.Errorf("inference panic: %v", r)
		}
	}()
	if b.metrics != nil {
		b.metrics.ObserveBatch(b.kind, len(rows))
	}
	return b.predict(model, rows)
}
