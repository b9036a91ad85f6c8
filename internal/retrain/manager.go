package retrain

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"noble/internal/obs"
	"noble/internal/serve"
)

// The corpus policy. The server's in-process manager and the one-shot
// CLI prune the same corpus, so it is one policy, owned here.
const (
	// corpusRetention drops harvested fixes older than a week, so a
	// long-lived corpus tracks the current RF environment instead of
	// averaging over every environment the deployment ever saw.
	corpusRetention = 7 * 24 * time.Hour
	// corpusMaxPerModel caps each model's corpus at its newest fixes.
	corpusMaxPerModel = 100_000
)

// ManagerConfig wires a Manager.
type ManagerConfig struct {
	// StateDir is the session WAL directory the harvester scans; the
	// corpus lives under it, at <StateDir>/retrain.
	StateDir string
	// ModelsDir is the bundle directory retrained bundles republish to.
	ModelsDir string

	// MinFixes refuses retrains below this corpus size (default 1).
	MinFixes int

	// Trigger is the automatic retrain policy; a zero policy makes the
	// manager manual-only (admin endpoint / CLI kicks).
	Trigger TriggerPolicy
	// Samples feeds the trigger (nil disables the automatic loop even
	// if Trigger is set): noble-serve snapshots its registry.
	Samples func() []Sample

	// Lifecycle, when set, is written as the republished bundle's
	// lifecycle.json sidecar; nil keeps the bundle's existing policy.
	Lifecycle *serve.LifecycleSpec

	// Reload, when set, is poked after a successful publish so a
	// co-resident registry stages the new generation without waiting
	// for its directory watcher.
	Reload func() error

	Logf func(format string, args ...any)
}

// RunRecord is one retrain attempt, as shown on /debug/retrain.
type RunRecord struct {
	Model    string     `json:"model"`
	Reason   string     `json:"reason"` // "admin", "cli", "drift", "schedule"
	Status   string     `json:"status"` // "ok" or "error"
	Error    string     `json:"error,omitempty"`
	Started  time.Time  `json:"started"`
	Finished time.Time  `json:"finished"`
	Result   *RunResult `json:"result,omitempty"`
}

// Retrain-run reason values (trigger reasons ReasonDrift/ReasonSchedule
// are used as-is).
const (
	ReasonAdmin = "admin"
	ReasonCLI   = "cli"
)

// Manager owns the harvest→trigger→retrain loop for one deployment:
// one corpus, one WAL, one bundle directory. All entry points — the
// periodic trigger loop, the admin endpoint's Kick, the CLI's RunOnce —
// serialize on one mutex, and retrains are single-flight: a kick while
// one is running is refused, not queued, so a flapping trigger cannot
// pile up training jobs.
type Manager struct {
	cfg       ManagerConfig
	corpusDir string
	trigger   *Trigger

	mu          sync.Mutex
	busy        bool
	busyModel   string
	runs        int64
	failures    int64
	harvests    int64
	harvested   int64 // cumulative fixes added across harvests
	lastHarvest *HarvestStats
	lastRun     *RunRecord
	corpusGen   int64
	corpusFixes map[string]int
}

// NewManager builds a Manager; it performs no I/O until a harvest or
// kick runs.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.MinFixes <= 0 {
		cfg.MinFixes = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Manager{
		cfg:         cfg,
		corpusDir:   filepath.Join(cfg.StateDir, "retrain"),
		trigger:     NewTrigger(cfg.Trigger),
		corpusFixes: map[string]int{},
	}
}

// HarvestNow runs one harvest pass into the corpus and records its
// stats.
func (m *Manager) HarvestNow() (HarvestStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.harvestLocked()
}

func (m *Manager) harvestLocked() (HarvestStats, error) {
	c, err := OpenCorpus(m.corpusDir)
	if err != nil {
		return HarvestStats{}, err
	}
	stats, err := Harvest(m.cfg.StateDir, c, HarvestOptions{
		Retention:   corpusRetention,
		MaxPerModel: corpusMaxPerModel,
	})
	if err != nil {
		return stats, err
	}
	m.harvests++
	m.harvested += int64(stats.Added)
	m.lastHarvest = &stats
	m.corpusGen = c.Generation()
	m.corpusFixes = c.Counts()
	return stats, nil
}

// Kick starts an asynchronous harvest+retrain of one model, returning
// immediately. It fails fast when a retrain is already in flight or
// the model has no retrainable bundle on disk.
func (m *Manager) Kick(model, reason string) error {
	if _, err := os.Stat(filepath.Join(m.cfg.ModelsDir, model, "manifest.json")); err != nil {
		return fmt.Errorf("no bundle named %s under %s", model, m.cfg.ModelsDir)
	}
	m.mu.Lock()
	if m.busy {
		busy := m.busyModel
		m.mu.Unlock()
		return fmt.Errorf("retrain of %s already in flight", busy)
	}
	m.busy = true
	m.busyModel = model
	m.mu.Unlock()
	go m.runOne(model, reason)
	return nil
}

// RunOnce harvests and retrains one model synchronously (the CLI
// one-shot path).
func (m *Manager) RunOnce(model, reason string) (*RunRecord, error) {
	m.mu.Lock()
	if m.busy {
		busy := m.busyModel
		m.mu.Unlock()
		return nil, fmt.Errorf("retrain of %s already in flight", busy)
	}
	m.busy = true
	m.busyModel = model
	m.mu.Unlock()
	rec := m.runOne(model, reason)
	if rec.Status != "ok" {
		return rec, fmt.Errorf("retrain %s: %s", model, rec.Error)
	}
	return rec, nil
}

// runOne performs harvest + retrain + publish for one model and clears
// the busy flag. Callers must have set busy.
func (m *Manager) runOne(model, reason string) *RunRecord {
	rec := &RunRecord{Model: model, Reason: reason, Started: time.Now()}
	err := m.retrain(model, rec)
	rec.Finished = time.Now()
	m.mu.Lock()
	m.runs++
	if err != nil {
		m.failures++
		rec.Status = "error"
		rec.Error = err.Error()
	} else {
		rec.Status = "ok"
	}
	m.lastRun = rec
	m.busy = false
	m.busyModel = ""
	m.trigger.NoteRun(model, rec.Finished)
	m.mu.Unlock()
	if err != nil {
		m.cfg.Logf("retrain %s failed (%s): %v", model, reason, err)
	} else if rec.Result != nil {
		m.cfg.Logf("retrained %s (%s): %d seed + %d harvested samples, mean %.2fm, published to %s — entering shadow",
			model, reason, rec.Result.SeedSamples, rec.Result.UsedFixes, rec.Result.MeanErrM, rec.Result.BundlePath)
	}
	return rec
}

func (m *Manager) retrain(model string, rec *RunRecord) error {
	m.mu.Lock()
	_, err := m.harvestLocked()
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("harvest: %w", err)
	}
	c, err := OpenCorpus(m.corpusDir)
	if err != nil {
		return err
	}
	res, err := Run(RunOptions{
		ModelsDir: m.cfg.ModelsDir,
		Model:     model,
		Corpus:    c,
		MinFixes:  m.cfg.MinFixes,
		Lifecycle: m.cfg.Lifecycle,
		Logf:      m.cfg.Logf,
	})
	if err != nil {
		return err
	}
	rec.Result = res
	if m.cfg.Reload != nil {
		if err := m.cfg.Reload(); err != nil {
			return fmt.Errorf("published %s but reload failed: %w", res.BundlePath, err)
		}
	}
	return nil
}

// Tick runs one trigger evaluation: harvest, observe the sample
// source, and kick a retrain for each decision. Drift on a model that
// is not itself a retrainable bundle (an IMU session model — its
// active generation is the one that accumulates re-anchor error when
// the RF environment moves) retrains the WiFi bundles holding corpus
// fixes instead, since those produced the fixes the drift was measured
// against.
func (m *Manager) Tick(now time.Time) {
	if m.cfg.Samples == nil {
		return
	}
	if _, err := m.HarvestNow(); err != nil {
		m.cfg.Logf("retrain harvest failed: %v", err)
	}
	samples := m.cfg.Samples()
	m.mu.Lock()
	decisions := m.trigger.Observe(now, samples)
	m.mu.Unlock()
	for _, d := range decisions {
		for _, target := range m.targetsFor(d.Model) {
			m.cfg.Logf("retrain trigger fired: model=%s reason=%s delta=%.2fm -> retraining %s", d.Model, d.Reason, d.DeltaM, target)
			if err := m.Kick(target, d.Reason); err != nil {
				m.cfg.Logf("retrain kick %s: %v", target, err)
			}
		}
	}
}

// targetsFor maps a trigger decision to retrainable bundle names.
func (m *Manager) targetsFor(model string) []string {
	if m.retrainable(model) {
		return []string{model}
	}
	return m.Targets()
}

// Targets lists the retrainable bundles holding corpus fixes as of the
// last harvest, sorted.
func (m *Manager) Targets() []string {
	m.mu.Lock()
	counts := m.corpusFixes
	m.mu.Unlock()
	var out []string
	for name := range counts {
		if m.retrainable(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// retrainable reports whether a wifi bundle by that name exists.
func (m *Manager) retrainable(model string) bool {
	raw, err := os.ReadFile(filepath.Join(m.cfg.ModelsDir, model, "manifest.json"))
	if err != nil {
		return false
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return false
	}
	return man.Kind == serve.KindWiFi && man.WiFi != nil
}

// Run drives Tick on the given interval until ctx is done — the
// automatic half of the loop, started by noble-serve when a retrain
// policy is configured.
func (m *Manager) Run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			m.Tick(now)
		}
	}
}

// Status is the /debug/retrain view.
func (m *Manager) Status() any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]any{
		"corpus": map[string]any{
			"dir":        m.corpusDir,
			"generation": m.corpusGen,
			"fixes":      m.corpusFixes,
			"total":      totalFixes(m.corpusFixes),
		},
		"busy":         m.busy,
		"busy_model":   m.busyModel,
		"runs":         m.runs,
		"failures":     m.failures,
		"harvests":     m.harvests,
		"harvested":    m.harvested,
		"last_harvest": m.lastHarvest,
		"last_run":     m.lastRun,
		"trigger": map[string]any{
			"policy": m.cfg.Trigger.Describe(),
			"models": m.trigger.State(),
		},
	}
}

func totalFixes(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// WritePrometheus renders the noble_retrain_* metric family.
func (m *Manager) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := obs.NewFamily(w, "noble_retrain_corpus_fixes", "gauge", "Harvested re-anchor fixes in the training corpus, by model.")
	for _, model := range slices.Sorted(maps.Keys(m.corpusFixes)) {
		f.Sample("", fmt.Sprintf("model=%q", model), m.corpusFixes[model])
	}
	obs.Single(w, "noble_retrain_corpus_generation", "gauge", "Persisted corpus generation (bumped by every harvest save).", m.corpusGen)
	obs.Single(w, "noble_retrain_harvested_fixes_total", "counter", "Fixes newly added to the corpus across all harvest passes.", m.harvested)
	f = obs.NewFamily(w, "noble_retrain_runs_total", "counter", "Retrain attempts, by outcome.")
	f.Sample("", `status="ok"`, m.runs-m.failures)
	f.Sample("", `status="error"`, m.failures)
	last := int64(0)
	if m.lastRun != nil {
		last = m.lastRun.Finished.Unix()
	}
	obs.Single(w, "noble_retrain_last_run_unixtime", "gauge", "Wall clock of the last finished retrain (0 before any).", last)
	busy := 0
	if m.busy {
		busy = 1
	}
	obs.Single(w, "noble_retrain_busy", "gauge", "Whether a retrain is in flight.", busy)
}
