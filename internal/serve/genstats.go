package serve

import (
	"sort"
	"sync"
	"time"
)

// Per-generation evaluation stats: the live evidence (mirrored rows,
// re-anchor scores, divergence, pass latency) the promotion controller
// weighs, and the two views of it the registry's listings hand out
// (LifecycleInfo as JSON, GenStatus as data). Each registered Model owns
// one GenStats; the stage machine resets it on every stage entry
// (applyStage).

// lifecycleErrorBuckets are the re-anchor error histogram's upper
// bounds, in meters (indoor scale: half a meter up to a wing of a
// building).
var lifecycleErrorBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32}

// numErrorBuckets = len(lifecycleErrorBuckets) + 1 overflow; asserted in
// TestSizeBucketsPairing.
const numErrorBuckets = 8

// passLatencyWindow is the per-generation latency ring size (per-row
// forward-pass samples backing the p99 gauge).
const passLatencyWindow = 2048

// GenStats accumulates one generation's live evaluation evidence. All
// methods are safe for concurrent use; reset starts a fresh window on
// each stage entry so every stage is judged on its own evidence.
type GenStats struct {
	mu       sync.Mutex
	since    time.Time
	mirrored int64 // mirrored rows evaluated
	scores   int64 // re-anchor fixes scored
	scoreSum float64
	errHist  [numErrorBuckets]int64
	divSum   float64 // divergence vs the active's predictions, meters
	divN     int64
	dropped  int64     // mirror submissions dropped (cap or failure)
	lat      []float64 // per-row pass latency, ms, sliding ring
	latN     int64
}

func newGenStats() *GenStats {
	return &GenStats{since: time.Now(), lat: make([]float64, 0, passLatencyWindow)}
}

// reset starts a fresh evaluation window.
func (g *GenStats) reset(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.since = now
	g.mirrored, g.scores, g.scoreSum = 0, 0, 0
	g.errHist = [numErrorBuckets]int64{}
	g.divSum, g.divN = 0, 0
	g.dropped = 0
	g.lat = g.lat[:0]
	g.latN = 0
}

// RecordMirror notes rows mirrored through this generation with their
// mean positional divergence (meters) from the active's predictions.
func (g *GenStats) RecordMirror(rows int, meanDivergenceM float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mirrored += int64(rows)
	g.divSum += meanDivergenceM * float64(rows)
	g.divN += int64(rows)
}

// RecordScore notes one re-anchor score: the gap (meters) between this
// generation's prediction and the WiFi fix.
func (g *GenStats) RecordScore(errM float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.scores++
	g.scoreSum += errM
	g.errHist[errorBucket(errM)]++
}

// RecordPass notes one batched forward pass: per-row latency samples
// feed the p99 the promotion policy bounds.
func (g *GenStats) RecordPass(d time.Duration, rows int) {
	if rows <= 0 {
		return
	}
	perRowMS := d.Seconds() * 1e3 / float64(rows)
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.lat) < passLatencyWindow {
		g.lat = append(g.lat, perRowMS)
	} else {
		g.lat[g.latN%passLatencyWindow] = perRowMS
	}
	g.latN++
}

// Drop counts a mirror submission that was shed (in-flight cap) or
// failed.
func (g *GenStats) Drop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropped++
}

func errorBucket(m float64) int {
	for i, le := range lifecycleErrorBuckets {
		if m <= le {
			return i
		}
	}
	return len(lifecycleErrorBuckets)
}

// GenStatsSnapshot is a point-in-time copy of one generation's
// evaluation evidence.
type GenStatsSnapshot struct {
	Since          time.Time
	Mirrored       int64
	Scores         int64
	ErrorSumM      float64
	ErrorHist      [numErrorBuckets]int64
	DivergenceSumM float64
	DivergenceN    int64
	Dropped        int64
	P99PassMS      float64

	MeanErrorM      float64
	MeanDivergenceM float64
}

// Samples is the evidence count promotion windows are measured in.
func (s GenStatsSnapshot) Samples() int64 { return s.Mirrored + s.Scores }

// Snapshot copies the current counters and derives the means and p99.
func (g *GenStats) Snapshot() GenStatsSnapshot {
	g.mu.Lock()
	snap := GenStatsSnapshot{
		Since:          g.since,
		Mirrored:       g.mirrored,
		Scores:         g.scores,
		ErrorSumM:      g.scoreSum,
		ErrorHist:      g.errHist,
		DivergenceSumM: g.divSum,
		DivergenceN:    g.divN,
		Dropped:        g.dropped,
	}
	lat := append([]float64(nil), g.lat...)
	g.mu.Unlock()
	if snap.Scores > 0 {
		snap.MeanErrorM = snap.ErrorSumM / float64(snap.Scores)
	}
	if snap.DivergenceN > 0 {
		snap.MeanDivergenceM = snap.DivergenceSumM / float64(snap.DivergenceN)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		snap.P99PassMS = lat[int(0.99*float64(len(lat)-1))]
	}
	return snap
}

// --- views of one generation's evidence ------------------------------

// LifecycleInfo is one generation's deployment state as JSON: where it
// is in the pipeline, what it is allowed to reach, and the evidence the
// promotion controller weighs.
type LifecycleInfo struct {
	Stage           string          `json:"stage"`
	Target          string          `json:"target"`
	Since           string          `json:"since"`
	MirroredRows    int64           `json:"mirrored_rows"`
	ReAnchorScores  int64           `json:"reanchor_scores"`
	MeanErrorM      float64         `json:"mean_error_m"`
	MeanDivergenceM float64         `json:"mean_divergence_m"`
	P99PassMS       float64         `json:"p99_pass_ms"`
	DroppedMirrors  int64           `json:"dropped_mirrors"`
	Policy          LifecyclePolicy `json:"policy"`
}

// lifecycleInfo builds the full lifecycle view of this generation.
func (m *Model) lifecycleInfo() ModelInfo {
	info := m.Info()
	snap := m.Stats.Snapshot()
	info.Lifecycle = &LifecycleInfo{
		Stage:           string(m.Stage),
		Target:          string(m.TargetStage),
		Since:           snap.Since.UTC().Format(time.RFC3339),
		MirroredRows:    snap.Mirrored,
		ReAnchorScores:  snap.Scores,
		MeanErrorM:      snap.MeanErrorM,
		MeanDivergenceM: snap.MeanDivergenceM,
		P99PassMS:       snap.P99PassMS,
		DroppedMirrors:  snap.Dropped,
		Policy:          m.Policy,
	}
	return info
}

// GenStatus is one generation's deployment state as data — what the
// promotion controller weighs.
type GenStatus struct {
	Name       string
	Generation int
	BundleID   string
	Kind       string
	Stage      Stage
	Target     Stage
	Policy     LifecyclePolicy
	Stats      GenStatsSnapshot
}

func genStatus(m *Model) *GenStatus {
	if m == nil {
		return nil
	}
	return &GenStatus{
		Name:       m.Name,
		Generation: m.Generation,
		BundleID:   m.BundleID,
		Kind:       m.Kind,
		Stage:      m.Stage,
		Target:     m.TargetStage,
		Policy:     m.Policy,
		Stats:      m.Stats.Snapshot(),
	}
}
