package serve

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"noble/internal/obs"
)

// latencyWindow is how many recent samples per endpoint back the quantile
// estimates. A power-of-two ring keeps Observe O(1); quantiles sort a copy
// at scrape time only.
const latencyWindow = 8192

// Metrics collects request counts per endpoint and status code, latency
// quantiles over a sliding window, and micro-batch occupancy per batcher
// kind (localize, track). All methods are safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	batches   map[string]*batchKindStats
}

// batchSizeBuckets are the upper bounds of the batch-size histogram:
// every forward pass lands in the first bucket whose bound is >= its row
// count, or the overflow bucket past the last bound. Powers of two match
// how occupancy actually clusters (1 = unbatched, MaxBatch = saturated).
var batchSizeBuckets = []int{1, 2, 4, 8, 16, 32, 64}

// batchKindStats is one batcher kind's coalescing counters.
type batchKindStats struct {
	count   int64 // forward passes
	rows    int64 // rows across all passes
	max     int64 // largest pass observed
	dropped int64 // rows dropped because their request was canceled while queued

	hist  [numSizeBuckets]int64 // per batchSizeBuckets bound, +1 overflow
	fires [numFireReasons]int64 // batched passes by the exit that fired them
}

// fireReason names the fill-stage exit that fired a batched pass; see
// Batcher.dispatch.
type fireReason int

const (
	fireFull   fireReason = iota // MaxBatch rows were queued
	fireCohort                   // as many jobs were queued as recently ran concurrently
	fireGap                      // the arrival stream paused
	fireWindow                   // Window ran out
	numFireReasons
)

var fireReasonNames = [numFireReasons]string{"full", "cohort", "gap", "window"}

// numSizeBuckets = len(batchSizeBuckets) + 1 (the overflow slot); array
// sizes need a constant, so the pairing is asserted in TestMetrics.
const numSizeBuckets = 8

// sizeBucket maps a pass's row count onto its histogram slot.
func sizeBucket(size int) int {
	for i, le := range batchSizeBuckets {
		if size <= le {
			return i
		}
	}
	return len(batchSizeBuckets)
}

// BatchSnapshot is a point-in-time copy of one batcher kind's counters —
// the machine-readable view the benchmark (bench/) diffs around a
// measured run. SizeCounts is indexed like batchSizeBuckets, with one
// extra overflow slot for passes past the last bound.
type BatchSnapshot struct {
	Passes      int64
	Rows        int64
	MaxRows     int64
	DroppedRows int64
	SizeCounts  []int64
}

type endpointStats struct {
	codes map[int]int64
	ring  []float64 // seconds
	n     int64     // total observations (ring index = n % len)
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: make(map[string]*endpointStats),
		batches:   make(map[string]*batchKindStats),
	}
}

// registerBatchKind pre-creates a kind's counters so its series appear
// in /metrics (at zero) before the first pass — scrapers can diff
// before/after without special-casing absent series.
func (m *Metrics) registerBatchKind(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchKind(kind)
}

// batchKind returns a kind's counters, creating them on first use. The
// caller holds m.mu.
func (m *Metrics) batchKind(kind string) *batchKindStats {
	s := m.batches[kind]
	if s == nil {
		s = &batchKindStats{}
		m.batches[kind] = s
	}
	return s
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.endpoints[endpoint]
	if s == nil {
		s = &endpointStats{codes: make(map[int]int64), ring: make([]float64, 0, latencyWindow)}
		m.endpoints[endpoint] = s
	}
	s.codes[code]++
	sec := d.Seconds()
	if len(s.ring) < latencyWindow {
		s.ring = append(s.ring, sec)
	} else {
		s.ring[s.n%latencyWindow] = sec
	}
	s.n++
}

// ObserveBatch records one coalesced forward pass of the given size for
// the given batcher kind.
func (m *Metrics) ObserveBatch(kind string, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.batchKind(kind)
	s.count++
	s.rows += int64(size)
	if int64(size) > s.max {
		s.max = int64(size)
	}
	s.hist[sizeBucket(size)]++
}

// ObserveBatchFire records why one batched pass of the given kind
// stopped waiting for company. Unbatched passes (Window <= 0) never
// wait and are not counted.
func (m *Metrics) ObserveBatchFire(kind string, reason fireReason) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.batchKind(kind)
	s.fires[reason]++
}

// ObserveBatchDrop records rows dropped from a batch queue because
// their request's context was done before the pass fired.
func (m *Metrics) ObserveBatchDrop(kind string, rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.batchKind(kind)
	s.dropped += int64(rows)
}

// BatchStats returns the number of forward passes and total rows batched
// so far for one batcher kind.
func (m *Metrics) BatchStats(kind string) (passes, rows int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.batches[kind]
	if s == nil {
		return 0, 0
	}
	return s.count, s.rows
}

// Snapshot copies one batcher kind's full counter set, including the
// batch-size histogram. A kind with no recorded passes returns a zero
// snapshot with a zeroed histogram, so callers can diff unconditionally.
func (m *Metrics) Snapshot(kind string) BatchSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := BatchSnapshot{SizeCounts: make([]int64, numSizeBuckets)}
	s := m.batches[kind]
	if s == nil {
		return snap
	}
	snap.Passes, snap.Rows, snap.MaxRows, snap.DroppedRows = s.count, s.rows, s.max, s.dropped
	copy(snap.SizeCounts, s.hist[:])
	return snap
}

// BatchDropped returns how many rows were dropped from one kind's batch
// queue due to cancellation.
func (m *Metrics) BatchDropped(kind string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.batches[kind]
	if s == nil {
		return 0
	}
	return s.dropped
}

// quantile returns the q-th quantile of vals (sorted in place).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

// WritePrometheus renders the collected metrics in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	names := slices.Sorted(maps.Keys(m.endpoints))

	f := obs.NewFamily(w, "noble_requests_total", "counter", "Requests served, by endpoint and status code.")
	for _, name := range names {
		s := m.endpoints[name]
		for _, c := range slices.Sorted(maps.Keys(s.codes)) {
			f.Sample("", fmt.Sprintf("endpoint=%q,code=\"%d\"", name, c), s.codes[c])
		}
	}

	f = obs.NewFamily(w, "noble_request_latency_seconds", "summary", "Request latency quantiles over a sliding window.")
	for _, name := range names {
		s := m.endpoints[name]
		vals := append([]float64(nil), s.ring...)
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			f.Sample("", fmt.Sprintf("endpoint=%q,quantile=\"%g\"", name, q), quantile(vals, q))
		}
		f.Sample("_count", fmt.Sprintf("endpoint=%q", name), s.n)
	}

	kinds := slices.Sorted(maps.Keys(m.batches))
	f = obs.NewFamily(w, "noble_batch_size", "histogram", "Forward-pass sizes (rows per pass) as a cumulative histogram, by batcher kind.")
	for _, kind := range kinds {
		s := m.batches[kind]
		obs.Histogram(f, fmt.Sprintf("kind=%q", kind), batchSizeBuckets, s.hist[:], s.count, s.rows)
	}
	f = obs.NewFamily(w, "noble_batch_fires_total", "counter", "Batched forward passes by the exit that fired them: full (MaxBatch rows), cohort (as many jobs queued as recently ran concurrently), gap (arrivals paused), window (the batch window ran out).")
	for _, kind := range kinds {
		for r, name := range fireReasonNames {
			f.Sample("", fmt.Sprintf("kind=%q,reason=%q", kind, name), m.batches[kind].fires[r])
		}
	}
	f = obs.NewFamily(w, "noble_batch_dropped_rows_total", "counter", "Rows dropped from batch queues because their request was canceled before the pass fired.")
	for _, kind := range kinds {
		f.Sample("", fmt.Sprintf("kind=%q", kind), m.batches[kind].dropped)
	}
}
