package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// stageBounds are the per-stage latency histogram's upper bounds in
// seconds: exponential from 100µs to 5s, matching the spread between a
// buffered journal append (microseconds) and a saturated forward pass
// (milliseconds to seconds). Observations past the last bound land in
// the implicit +Inf bucket.
var stageBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// numStageBuckets = len(stageBounds) + 1 (the +Inf slot); array sizes
// need a constant, so the pairing is asserted in the package tests.
const numStageBuckets = 16

// stageHist is one stage's latency aggregate. Everything on the record
// path is atomic — Finish never takes a lock to update histograms; the
// mutex only guards the exemplar trace ID, taken when a new maximum is
// observed (rare by construction).
type stageHist struct {
	buckets [numStageBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64

	mu       sync.Mutex
	exemplar string // trace ID of the max observation
}

// bucketFor maps a duration onto its histogram slot.
func bucketFor(sec float64) int {
	for i, le := range stageBounds {
		if sec <= le {
			return i
		}
	}
	return len(stageBounds)
}

// observe records one duration for one trace.
func (h *stageHist) observe(d time.Duration, traceID string) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketFor(float64(ns)/1e9)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur {
			return
		}
		if h.maxNs.CompareAndSwap(cur, ns) {
			h.mu.Lock()
			h.exemplar = traceID
			h.mu.Unlock()
			return
		}
	}
}

// Options configures a Tracer. The zero value is usable: full sampling,
// default ring sizes, no logger (slow requests are retained but not
// logged).
type Options struct {
	// RingSize bounds the recent-trace ring (default 256).
	RingSize int
	// SlowKeep bounds the always-retained slowest set (default 16).
	SlowKeep int
	// ErrKeep bounds the always-retained errored ring (default 64).
	ErrKeep int
	// SampleRate is the admission probability for the recent ring, in
	// [0, 1]. Values <= 0 mean 1.0 (sample everything); the slowest and
	// errored sets ignore it — tail sampling keeps what matters even at
	// low rates. Histograms always record every trace.
	SampleRate float64
	// SlowThreshold marks a trace slow: it competes for the slowest set
	// regardless, but past this duration it is also logged (default
	// 250ms).
	SlowThreshold time.Duration
	// SlowLogEvery rate-limits slow-request log lines (default 1s; the
	// traces themselves are all retained, only the log line is sampled).
	SlowLogEvery time.Duration
	// Logger receives the sampled slow-request line; nil disables
	// logging entirely.
	Logger *slog.Logger
	// IDPrefix namespaces generated trace IDs (default "t").
	IDPrefix string
}

// Tracer owns the process's trace aggregation: per-stage histograms,
// the tail-sampled retention rings, and the slow-request log. All
// methods are safe for concurrent use, and all methods on a nil
// *Tracer are no-ops, so a server with tracing disabled carries no
// branches at call sites.
type Tracer struct {
	opt Options

	seq       atomic.Int64 // generated trace IDs
	sampleSeq atomic.Int64 // deterministic sampling counter
	lastSlow  atomic.Int64 // unix-nano of the last slow log line

	stageMu sync.RWMutex
	stageH  map[string]*stageHist

	traces    atomic.Int64 // finished traces
	errored   atomic.Int64 // finished with status >= 500
	slow      atomic.Int64 // finished past SlowThreshold
	truncSpan atomic.Int64 // spans dropped past maxSpans

	mu      sync.Mutex
	recent  []TraceDump // ring; recentN indexes it
	recentN int64
	errRing []TraceDump // ring; errN indexes it
	errN    int64
	slowest []TraceDump // up to SlowKeep, unordered; min replaced on insert
}

// NewTracer builds a tracer from opt.
func NewTracer(opt Options) *Tracer {
	if opt.RingSize <= 0 {
		opt.RingSize = 256
	}
	if opt.SlowKeep <= 0 {
		opt.SlowKeep = 16
	}
	if opt.ErrKeep <= 0 {
		opt.ErrKeep = 64
	}
	if opt.SampleRate <= 0 || opt.SampleRate > 1 {
		opt.SampleRate = 1
	}
	if opt.SlowThreshold <= 0 {
		opt.SlowThreshold = 250 * time.Millisecond
	}
	if opt.SlowLogEvery <= 0 {
		opt.SlowLogEvery = time.Second
	}
	if opt.IDPrefix == "" {
		opt.IDPrefix = "t"
	}
	t := &Tracer{opt: opt, stageH: make(map[string]*stageHist, len(stages))}
	for _, s := range stages {
		t.stageH[s] = &stageHist{}
	}
	return t
}

// SampleRate reports the configured recent-ring admission rate.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.opt.SampleRate
}

// Start begins a trace named name (the endpoint). id is the
// client-supplied trace ID (X-Trace-Id), sanitized; empty generates
// one. The returned context carries the trace for every downstream
// span. On a nil tracer both returns are pass-throughs (ctx unchanged,
// trace nil), so a server with tracing off traces nothing at no cost.
func (t *Tracer) Start(ctx context.Context, name, id string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	if id == "" {
		id = t.nextID()
	} else {
		id = sanitizeID(id)
	}
	tr := &Trace{tracer: t, id: id, name: name, begin: time.Now(), spans: make([]Span, 0, 8)}
	return With(ctx, tr), tr
}

// record aggregates one finished trace.
func (t *Tracer) record(tr *Trace, reqID string, spans []Span, truncated int, dur time.Duration, status int) {
	if t == nil {
		return
	}
	t.traces.Add(1)
	if truncated > 0 {
		t.truncSpan.Add(int64(truncated))
	}
	for i := range spans {
		t.hist(spans[i].Stage).observe(spans[i].Dur, tr.id)
	}
	t.hist(StageTotal).observe(dur, tr.id)

	isErr := status >= 500
	isSlow := dur >= t.opt.SlowThreshold
	if isErr {
		t.errored.Add(1)
	}
	if isSlow {
		t.slow.Add(1)
	}

	// Admission: errored and slow traces are always retained (tail
	// sampling); the recent ring is probabilistic.
	sampled := t.sampleHit()
	if !sampled && !isErr && !isSlow {
		// Still a candidate for the slowest set: "slowest" means slowest
		// observed, not slowest sampled.
		t.mu.Lock()
		if len(t.slowest) < t.opt.SlowKeep || dur > t.slowestMinLocked() {
			d := dumpTrace(tr, reqID, spans, truncated, dur, status)
			t.insertSlowestLocked(d)
		}
		t.mu.Unlock()
		return
	}

	d := dumpTrace(tr, reqID, spans, truncated, dur, status)
	t.mu.Lock()
	if sampled {
		if len(t.recent) < t.opt.RingSize {
			t.recent = append(t.recent, d)
		} else {
			t.recent[t.recentN%int64(t.opt.RingSize)] = d
		}
		t.recentN++
	}
	if isErr {
		if len(t.errRing) < t.opt.ErrKeep {
			t.errRing = append(t.errRing, d)
		} else {
			t.errRing[t.errN%int64(t.opt.ErrKeep)] = d
		}
		t.errN++
	}
	t.insertSlowestLocked(d)
	t.mu.Unlock()

	if isSlow {
		t.logSlow(d)
	}
}

// slowestMinLocked returns the smallest duration in the slowest set
// (0 when empty). Caller holds t.mu.
func (t *Tracer) slowestMinLocked() time.Duration {
	var min time.Duration = -1
	for i := range t.slowest {
		d := time.Duration(t.slowest[i].DurationMs * float64(time.Millisecond))
		if min < 0 || d < min {
			min = d
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// insertSlowestLocked adds d to the slowest set, evicting the current
// minimum when full. SlowKeep is small, so the linear scan is cheaper
// than a heap. Caller holds t.mu.
func (t *Tracer) insertSlowestLocked(d TraceDump) {
	if len(t.slowest) < t.opt.SlowKeep {
		t.slowest = append(t.slowest, d)
		return
	}
	minIdx, minDur := -1, d.DurationMs
	for i := range t.slowest {
		if t.slowest[i].DurationMs < minDur {
			minIdx, minDur = i, t.slowest[i].DurationMs
		}
	}
	if minIdx >= 0 {
		t.slowest[minIdx] = d
	}
}

// sampleHit decides recent-ring admission. Deterministic (a golden-ratio
// hash over a counter) rather than math/rand: no lock, no seed state,
// and an exact long-run rate.
func (t *Tracer) sampleHit() bool {
	if t.opt.SampleRate >= 1 {
		return true
	}
	x := uint64(t.sampleSeq.Add(1)) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < t.opt.SampleRate
}

// hist resolves a stage's histogram, creating it on first use for
// stages outside the pre-registered set.
func (t *Tracer) hist(stage string) *stageHist {
	t.stageMu.RLock()
	h := t.stageH[stage]
	t.stageMu.RUnlock()
	if h != nil {
		return h
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	if h = t.stageH[stage]; h == nil {
		h = &stageHist{}
		t.stageH[stage] = h
	}
	return h
}

// logSlow emits the rate-limited slow-request line.
func (t *Tracer) logSlow(d TraceDump) {
	lg := t.opt.Logger
	if lg == nil {
		return
	}
	now := time.Now().UnixNano()
	for {
		last := t.lastSlow.Load()
		if now-last < int64(t.opt.SlowLogEvery) {
			return
		}
		if t.lastSlow.CompareAndSwap(last, now) {
			break
		}
	}
	attrs := []any{
		slog.String("trace_id", d.ID),
		slog.String("endpoint", d.Name),
		slog.Int("status", d.Status),
		slog.Float64("duration_ms", d.DurationMs),
	}
	if d.RequestID != "" {
		attrs = append(attrs, slog.String("request_id", d.RequestID))
	}
	// The per-stage breakdown is the point of the line: where the time
	// went, summed per stage.
	perStage := map[string]float64{}
	for _, sp := range d.Spans {
		perStage[sp.Stage] += sp.DurationMs
	}
	for _, s := range stages {
		if s == StageTotal {
			continue
		}
		if ms, ok := perStage[s]; ok {
			attrs = append(attrs, slog.Float64(s+"_ms", ms))
		}
	}
	lg.Warn("slow request", attrs...)
}

// StageStats is one stage's aggregate, as data: the benchmark diffs two
// snapshots around a measured slice to attribute its latency to pipeline
// stages. Buckets holds raw (non-cumulative) counts, one per stage
// histogram bound plus a final +Inf slot.
type StageStats struct {
	Count      int64
	SumSeconds float64
	MaxSeconds float64
	Buckets    []int64
}

// StageSnapshot copies every stage's aggregate.
func (t *Tracer) StageSnapshot() map[string]StageStats {
	if t == nil {
		return nil
	}
	t.stageMu.RLock()
	defer t.stageMu.RUnlock()
	out := make(map[string]StageStats, len(t.stageH))
	for name, h := range t.stageH {
		s := StageStats{
			Count:      h.count.Load(),
			SumSeconds: float64(h.sumNs.Load()) / 1e9,
			MaxSeconds: float64(h.maxNs.Load()) / 1e9,
			Buckets:    make([]int64, numStageBuckets),
		}
		for i := range s.Buckets {
			s.Buckets[i] = h.buckets[i].Load()
		}
		out[name] = s
	}
	return out
}

// TraceDump is one retained trace in /debug/traces wire shape.
type TraceDump struct {
	ID         string     `json:"id"`
	RequestID  string     `json:"request_id,omitempty"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Status     int        `json:"status"`
	Truncated  int        `json:"truncated_spans,omitempty"`
	Spans      []SpanDump `json:"spans"`
}

// SpanDump is one span in wire shape: offset and duration in
// fractional milliseconds relative to the trace start.
type SpanDump struct {
	Stage      string  `json:"stage"`
	OffsetMs   float64 `json:"offset_ms"`
	DurationMs float64 `json:"duration_ms"`
	Kind       string  `json:"kind,omitempty"`
	Rows       int     `json:"rows,omitempty"`
}

// dumpTrace freezes a finished trace into wire shape.
func dumpTrace(tr *Trace, reqID string, spans []Span, truncated int, dur time.Duration, status int) TraceDump {
	d := TraceDump{
		ID:         tr.id,
		RequestID:  reqID,
		Name:       tr.name,
		Start:      tr.begin,
		DurationMs: float64(dur) / float64(time.Millisecond),
		Status:     status,
		Truncated:  truncated,
		Spans:      make([]SpanDump, len(spans)),
	}
	for i, sp := range spans {
		d.Spans[i] = SpanDump{
			Stage:      sp.Stage,
			OffsetMs:   float64(sp.Start) / float64(time.Millisecond),
			DurationMs: float64(sp.Dur) / float64(time.Millisecond),
			Kind:       sp.Kind,
			Rows:       sp.Rows,
		}
	}
	return d
}

// DumpResult is the /debug/traces response body.
type DumpResult struct {
	Traces      int64       `json:"traces_total"`
	Errored     int64       `json:"errored_total"`
	Slow        int64       `json:"slow_total"`
	SampleRate  float64     `json:"sample_rate"`
	SlowMs      float64     `json:"slow_threshold_ms"`
	Recent      []TraceDump `json:"recent"`
	Slowest     []TraceDump `json:"slowest"`
	ErroredRing []TraceDump `json:"errored"`
}

// Dump returns the retained traces: recent newest-first, slowest by
// descending duration, errored newest-first.
func (t *Tracer) Dump() DumpResult {
	if t == nil {
		return DumpResult{}
	}
	t.mu.Lock()
	recent := ringNewestFirst(t.recent, t.recentN, t.opt.RingSize)
	errored := ringNewestFirst(t.errRing, t.errN, t.opt.ErrKeep)
	slowest := append([]TraceDump(nil), t.slowest...)
	t.mu.Unlock()
	sort.Slice(slowest, func(i, k int) bool { return slowest[i].DurationMs > slowest[k].DurationMs })
	return DumpResult{
		Traces:      t.traces.Load(),
		Errored:     t.errored.Load(),
		Slow:        t.slow.Load(),
		SampleRate:  t.opt.SampleRate,
		SlowMs:      float64(t.opt.SlowThreshold) / float64(time.Millisecond),
		Recent:      recent,
		Slowest:     slowest,
		ErroredRing: errored,
	}
}

// ringNewestFirst copies a ring out newest-first. n is the total ever
// inserted, size the ring capacity.
func ringNewestFirst(ring []TraceDump, n int64, size int) []TraceDump {
	out := make([]TraceDump, 0, len(ring))
	for i := int64(1); i <= int64(len(ring)); i++ {
		out = append(out, ring[(n-i)%int64(size)])
	}
	return out
}

// nextID generates a trace ID.
func (t *Tracer) nextID() string {
	return t.opt.IDPrefix + "-" + strconv.FormatInt(t.seq.Add(1), 10)
}

// sanitizeID bounds and cleans a client-supplied trace ID so arbitrary
// header bytes never land in logs or the dump endpoint verbatim.
func sanitizeID(id string) string {
	const maxIDLen = 64
	if len(id) > maxIDLen {
		id = id[:maxIDLen]
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':' {
			continue
		}
		// Rebuild with offending bytes replaced.
		b := []byte(id)
		for k := i; k < len(b); k++ {
			c := b[k]
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				c == '-' || c == '_' || c == '.' || c == ':' {
				continue
			}
			b[k] = '_'
		}
		return string(b)
	}
	return id
}

// WritePrometheus renders the stage histograms and trace counters in
// the Prometheus text exposition format.
func (t *Tracer) WritePrometheus(w io.Writer) {
	if t == nil {
		return
	}
	snap := t.StageSnapshot()
	names := slices.Sorted(maps.Keys(snap))

	f := NewFamily(w, "noble_stage_seconds", "histogram", "Per-stage request latency (total = whole request).")
	for _, name := range names {
		s := snap[name]
		Histogram(f, fmt.Sprintf("stage=%q", name), stageBounds, s.Buckets, s.Count, s.SumSeconds)
	}
	f = NewFamily(w, "noble_stage_max_seconds", "gauge", "Largest single observation per stage, with its trace ID as exemplar.")
	t.stageMu.RLock()
	for _, name := range names {
		h := t.stageH[name]
		h.mu.Lock()
		ex := h.exemplar
		h.mu.Unlock()
		f.Sample("", fmt.Sprintf("stage=%q,trace_id=%q", name, ex), snap[name].MaxSeconds)
	}
	t.stageMu.RUnlock()
	f = NewFamily(w, "noble_traces_total", "counter", "Finished traces, by outcome class.")
	f.Sample("", `class="all"`, t.traces.Load())
	f.Sample("", `class="errored"`, t.errored.Load())
	f.Sample("", `class="slow"`, t.slow.Load())
	Single(w, "noble_trace_truncated_spans_total", "counter", "Spans dropped past the per-trace cap.", t.truncSpan.Load())
}
