// Package obs is the serving stack's in-process observability layer: a
// lightweight, allocation-conscious tracer that follows one request
// across its full lifecycle — HTTP ingress, decode, batch-queue wait,
// the coalesced forward pass, session lock, journal append/fsync,
// encode — as explicit spans with monotonic timings.
//
// The design optimizes for the serving hot path (millions of tiny
// requests), not for distributed-tracing generality:
//
//   - A Trace is a small struct with a preallocated span slice; starting
//     one costs a couple of allocations, and recording a span under the
//     trace mutex costs none in steady state.
//   - Traces ride the request's context.Context. A nil Trace (tracing
//     off, or a code path outside any request) makes every operation a
//     cheap no-op, so instrumented code never branches on "is tracing
//     on".
//   - Spans recorded from other goroutines — the batcher's dispatcher
//     stitching a request into the shared pass it coalesced into — go
//     through AddSpan/AddBatchSpan with explicit wall-clock bounds.
//   - Completed traces feed fixed-size per-stage histograms (atomic,
//     lock-free) and a bounded in-memory ring with tail-sampling: the
//     recent ring is sampled, but the slowest and errored traces are
//     always retained, because those are the ones worth reading after
//     the fact.
//
// The Tracer surfaces everything three ways: WritePrometheus renders
// the per-stage histograms for /metrics, Dump returns the retained
// traces for /debug/traces, and a sampled slow-request line goes to the
// structured logger. WriteRuntimePrometheus adds process runtime
// metrics (goroutines, heap, GC pauses) alongside.
package obs

import (
	"context"
	"sync"
	"time"
)

// Stage names, in request-lifecycle order. The batcher boundary spans
// (queue_wait, batch_pass) are recorded by the dispatcher goroutine
// into every request the pass coalesced; everything else is recorded by
// the request's own goroutine.
const (
	StageDecode        = "decode"         // request body read + JSON parse
	StageQueueWait     = "queue_wait"     // enqueue to forward-pass start
	StageBatchPass     = "batch_pass"     // the coalesced forward pass
	StageSessionLock   = "session_lock"   // waiting on the session mutex
	StageJournalAppend = "journal_append" // WAL buffered append
	StageJournalFsync  = "journal_fsync"  // request-boundary group commit
	StageEncode        = "encode"         // response encode + write
	// StageTotal is the whole request, recorded implicitly at Finish.
	StageTotal = "total"
)

// stages is the pre-registered set; unknown stage names still work (the
// tracer creates their histograms on first use) but these never take
// the registration lock.
var stages = []string{
	StageDecode, StageQueueWait, StageBatchPass, StageSessionLock,
	StageJournalAppend, StageJournalFsync, StageEncode, StageTotal,
}

// Span is one timed stage within a trace. Start is the offset from the
// trace's begin time, so a dumped trace reads as a timeline without
// storing absolute stamps per span.
type Span struct {
	Stage string
	Start time.Duration // offset from trace start
	Dur   time.Duration
	Kind  string // batcher kind, batch_pass spans only
	Rows  int    // total rows in the coalesced pass, batch_pass spans only
}

// maxSpans caps one trace's span count: past it spans are counted, not
// stored, so no request — however many segments it carries — can grow a
// trace without bound.
const maxSpans = 512

// Trace is one request's span record. The zero value is not used;
// Tracer.Start builds traces. A nil *Trace is valid everywhere and does
// nothing, which is how untraced code paths stay branch-free.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	begin  time.Time

	mu        sync.Mutex
	reqID     string
	spans     []Span
	truncated int
	finished  bool
}

// ID returns the trace ID (client-supplied X-Trace-Id or generated).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetRequestID attaches the server-assigned request ID (the /v2
// X-Request-Id value), correlating the trace with response envelopes
// and logs.
func (t *Trace) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reqID = id
	t.mu.Unlock()
}

// add records one finished span. Safe from any goroutine.
func (t *Trace) add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished || len(t.spans) >= maxSpans {
		if !t.finished {
			t.truncated++
		}
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Finish completes the trace: the total duration and every span feed
// the tracer's stage histograms, and the trace enters the retention
// rings per the tail-sampling policy. status is the HTTP status code
// (>= 500 marks the trace errored). Idempotent; spans recorded after
// Finish are dropped.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	dur := time.Since(t.begin)
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	spans := t.spans
	reqID := t.reqID
	truncated := t.truncated
	t.mu.Unlock()
	t.tracer.record(t, reqID, spans, truncated, dur, status)
}

// ctxKey carries the *Trace through a request's context.
type ctxKey struct{}

// With returns ctx carrying t.
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// From extracts the trace from ctx; nil when the request is untraced.
func From(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// ActiveSpan is an in-progress span: Begin stamps the start, End
// records it. It is a value type so the begin/end pair costs no
// allocation.
type ActiveSpan struct {
	t     *Trace
	stage string
	start time.Time
}

// Begin starts a span on ctx's trace; on an untraced context the
// returned ActiveSpan (and its End) are no-ops.
func Begin(ctx context.Context, stage string) ActiveSpan {
	t := From(ctx)
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, stage: stage, start: time.Now()}
}

// End records the span.
func (s ActiveSpan) End() {
	if s.t == nil {
		return
	}
	s.t.add(Span{Stage: s.stage, Start: s.start.Sub(s.t.begin), Dur: time.Since(s.start)})
}

// AddSpan records a completed [start, end] span on ctx's trace — the
// cross-goroutine entry point (e.g. the batcher's dispatcher recording
// a request's queue wait).
func AddSpan(ctx context.Context, stage string, start, end time.Time) {
	t := From(ctx)
	if t == nil {
		return
	}
	t.add(Span{Stage: stage, Start: start.Sub(t.begin), Dur: end.Sub(start)})
}

// AddBatchSpan stitches a request's trace into the shared forward pass
// it coalesced into: kind is the batcher kind ("localize", "track") and
// rows the total row count of the pass — so a dumped trace shows not
// just that the request waited and ran, but how big the pass it rode
// in was.
func AddBatchSpan(ctx context.Context, kind string, rows int, start, end time.Time) {
	t := From(ctx)
	if t == nil {
		return
	}
	t.add(Span{Stage: StageBatchPass, Start: start.Sub(t.begin), Dur: end.Sub(start), Kind: kind, Rows: rows})
}

// SetRequestID attaches the server-assigned request ID to ctx's trace.
func SetRequestID(ctx context.Context, id string) { From(ctx).SetRequestID(id) }
