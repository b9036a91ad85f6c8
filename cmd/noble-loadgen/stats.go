package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"noble/client"
)

// Recorder collects per-operation latency and error-class counts for one
// measured pass. It is fed either by the client SDK's request hook
// (request/response modes) or by explicit Record calls (stream mode,
// where there is no request/response exchange to hook). It is safe for
// concurrent use.
//
// The recorder starts disarmed so setup traffic (model discovery,
// warm-up of the connection pool) never pollutes the measurement; Drive
// arms it at the start of the measured window.
type Recorder struct {
	armed atomic.Bool

	mu   sync.Mutex
	lats []float64 // seconds; successful operations only
	errs map[string]int64
}

// NewRecorder returns a disarmed recorder.
func NewRecorder() *Recorder {
	return &Recorder{errs: make(map[string]int64)}
}

// Arm starts accepting observations.
func (r *Recorder) Arm() { r.armed.Store(true) }

// Hook adapts the recorder to the client SDK's per-request hook: one
// observation per wire exchange, classified by status and error.
func (r *Recorder) Hook() client.RequestHook {
	return func(o client.RequestObservation) {
		r.observe(o.Duration, classify(o.Status, o.Err))
	}
}

// Record logs one operation timed by the driver itself (stream mode,
// where no hook fires). err nil means success.
func (r *Recorder) Record(d time.Duration, err error) {
	r.observe(d, classifyError(err))
}

// observe files one observation under its class.
func (r *Recorder) observe(d time.Duration, class string) {
	if !r.armed.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if class != "" {
		r.errs[class]++
		return
	}
	r.lats = append(r.lats, d.Seconds())
}

// Counts is a recorder's aggregate view of one pass.
type Counts struct {
	Ok      int64
	Errors  int64
	ByClass map[string]int64 // error class → count; empty classes omitted
	Latency LatencyMs
}

// Snapshot summarizes everything recorded so far.
func (r *Recorder) Snapshot() Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := Counts{Ok: int64(len(r.lats)), ByClass: make(map[string]int64, len(r.errs))}
	for class, n := range r.errs {
		c.Errors += n
		c.ByClass[class] = n
	}
	c.Latency = summarizeSeconds(r.lats)
	return c
}

// LatencyMs is a latency distribution in milliseconds.
type LatencyMs struct {
	Mean, P50, P95, P99, Max float64
}

// summarizeSeconds reduces a sample set (seconds) to LatencyMs. The
// input is copied, not reordered.
func summarizeSeconds(samples []float64) LatencyMs {
	if len(samples) == 0 {
		return LatencyMs{}
	}
	vals := append([]float64(nil), samples...)
	sort.Float64s(vals)
	q := func(p float64) float64 {
		return vals[int(p*float64(len(vals)-1))] * 1000
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return LatencyMs{
		Mean: sum / float64(len(vals)) * 1000,
		P50:  q(0.50),
		P95:  q(0.95),
		P99:  q(0.99),
		Max:  vals[len(vals)-1] * 1000,
	}
}
