package serve

import (
	"fmt"
	"io"
	"log"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"noble/internal/core"
	"noble/internal/mat"
	"noble/internal/obs"
)

// The model registry is four files: this one holds the Registry — the
// lock, the API, the read-side listings; stage.go is the pure stage
// machine every mutation goes through; bundledisk.go is the bundle
// directory (sidecar, stamps, scan, archive); genstats.go is one
// generation's evaluation evidence.

// Model is one registered inference target: exactly one of WiFi or IMU is
// set, matching Kind. A Model is one *generation* of a name — the
// registry holds at most two per name (the active one serving traffic
// and one staged shadow/canary under evaluation).
type Model struct {
	Name string
	Kind string
	WiFi *core.WiFiModel
	IMU  *core.IMUModel

	// Generation counts how many times this name has been (re)loaded;
	// LoadedAt stamps the load.
	Generation int
	LoadedAt   time.Time

	// Lifecycle state. BundleID is the content fingerprint of the
	// on-disk bundle (empty for programmatic models) — the identity that
	// survives restarts. Stage/StageSince are written only by applyStage.
	Stage      Stage
	StageSince time.Time
	BundleID   string
	// TargetStage is configuration, not live state: the stage the
	// bundle's lifecycle.json allows this generation to reach.
	//
	//vet:stagegate-exempt
	TargetStage Stage
	Policy      LifecyclePolicy

	// Stats accumulates this generation's live evaluation evidence:
	// mirrored rows, re-anchor scores, divergence, pass latency.
	Stats *GenStats

	// screened and packed guard the one-off builds of the model's weight
	// copies (packFor).
	screened, packed sync.Once
}

// packFor is called with the row count of every pass about to run on the
// model. The first pass of any size builds a WiFi model's fine-head
// screen (core.WiFiModel.ScreenFineHead: an fp32 copy of the head, ~1 MB
// per placed WiFi generation at the bench shape, about a millisecond to
// build), from which its 1–4-row passes take their class. The first pass
// of mat.PackedMinRows rows or more builds the packed copy of the dense
// weights that such passes read from then on
// (core.WiFiModel.PackWeights). Concurrent first passes wait for the one
// build of each. Deferring the panels to here, rather than packing when
// the model is placed, keeps a deployment that never batches — lone
// fixes, tracking sessions — at one fp64 copy of its weights and out of
// the ~3 ms build; the screen is built on the first pass because every
// deployment's lone fixes use it.
func (m *Model) packFor(rows int) {
	m.screened.Do(func() {
		if m.WiFi != nil {
			m.WiFi.ScreenFineHead()
		}
	})
	if rows < mat.PackedMinRows {
		return
	}
	m.packed.Do(func() {
		switch {
		case m.WiFi != nil:
			m.WiFi.PackWeights()
		case m.IMU != nil:
			m.IMU.PackWeights()
		}
	})
}

// ModelInfo is the JSON-facing summary of a registered model.
type ModelInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Precision  string `json:"precision"` // "fp64" or "int8"
	Classes    int    `json:"classes"`
	FLOPs      int64  `json:"flops"`
	Generation int    `json:"generation"`
	LoadedAt   string `json:"loaded_at"`
	Stage      string `json:"stage"`
	BundleID   string `json:"bundle_id,omitempty"`

	// Wi-Fi only.
	InputDim  int `json:"input_dim,omitempty"`
	Buildings int `json:"buildings,omitempty"`
	Floors    int `json:"floors,omitempty"`

	// IMU only.
	MaxSegments int `json:"max_segments,omitempty"`
	SegmentDim  int `json:"segment_dim,omitempty"`

	// Lifecycle carries the live evaluation evidence and promotion
	// policy; populated by ListLifecycle (the /v2/models and /debug
	// views).
	Lifecycle *LifecycleInfo `json:"lifecycle,omitempty"`
}

// Info summarizes the model.
func (m *Model) Info() ModelInfo {
	info := ModelInfo{
		Name:       m.Name,
		Kind:       m.Kind,
		Generation: m.Generation,
		LoadedAt:   m.LoadedAt.UTC().Format(time.RFC3339),
		Stage:      string(m.Stage),
		BundleID:   m.BundleID,
	}
	switch {
	case m.WiFi != nil:
		info.Precision = m.WiFi.Precision()
		info.Classes = m.WiFi.Classes()
		info.FLOPs = m.WiFi.FLOPs()
		info.InputDim = m.WiFi.InputDim()
		info.Buildings = m.WiFi.NumBuildings()
		info.Floors = m.WiFi.NumFloors()
	case m.IMU != nil:
		info.Precision = m.IMU.Precision()
		info.Classes = m.IMU.Classes()
		info.FLOPs = m.IMU.FLOPs()
		info.MaxSegments = m.IMU.MaxLen()
		info.SegmentDim = m.IMU.SegmentDim()
	}
	return info
}

// Registry holds the live models. Lookups take a read lock; reloads build
// replacement models entirely off the request path and place them in the
// deployment pipeline under a write lock, so a hot reload is atomic from
// a request's point of view and a new generation of an existing name
// starts in shadow rather than swapping in.
type Registry struct {
	dir  string
	logf func(format string, args ...any)

	mu        sync.RWMutex
	deps      map[string]*deployment
	recovered map[string]Stage // name+NUL+bundleID → stage recovered from the WAL
	counts    map[string]int64 // transition counter per model+NUL+to-stage

	// hookMu serializes what follows a machine step outside mu — the
	// archive copy of an activated bundle, then the OnTransition
	// deliveries — so journaled lifecycle events keep transition order
	// without holding mu across I/O.
	hookMu       sync.Mutex
	onTransition func(TransitionEvent)
	copyPayload  func(src, dst, bundleID string) error // copyBundlePayload; a seam for tests
}

// NewRegistry returns a registry over a bundle directory. dir may be empty
// for a purely programmatic registry (tests, demo mode). logf defaults to
// log.Printf.
func NewRegistry(dir string, logf func(format string, args ...any)) *Registry {
	if logf == nil {
		logf = log.Printf
	}
	return &Registry{
		dir:         dir,
		logf:        logf,
		deps:        make(map[string]*deployment),
		recovered:   make(map[string]Stage),
		counts:      make(map[string]int64),
		copyPayload: copyBundlePayload,
	}
}

// SetOnTransition installs the stage-change hook (at most one; the
// engine uses it to journal WAL lifecycle events). Call before serving.
func (r *Registry) SetOnTransition(fn func(TransitionEvent)) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.onTransition = fn
}

// SetRecoveredStages seeds the stages recovered from the WAL (keyed
// name+NUL+bundleID, see RecoveredStages) so the first Reload after a
// restart re-places each on-disk bundle at the stage it held at the
// crash instead of re-running the pipeline from scratch.
func (r *Registry) SetRecoveredStages(stages map[string]Stage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	maps.Copy(r.recovered, stages)
}

// recoveredKey builds the recovered-stage map key.
func recoveredKey(name, bundleID string) string { return name + "\x00" + bundleID }

// apply runs one stage-machine step under the write lock and counts its
// events; then, with the lock released, archives the payload of a disk
// bundle the step activated and delivers the events, in order, to the
// log and the hook.
func (r *Registry) apply(step func(now time.Time) ([]TransitionEvent, error)) error {
	now := time.Now()
	r.mu.Lock()
	evs, err := step(now)
	for _, ev := range evs {
		r.counts[ev.Model+"\x00"+string(ev.To)]++
	}
	r.mu.Unlock()
	if len(evs) == 0 {
		return err
	}
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	for _, ev := range evs {
		if ev.To == StageActive && ev.BundleID != "" && r.dir != "" {
			// Not fatal: the in-memory active keeps serving; only crash
			// recovery of a staged state degrades.
			if err := r.archiveActive(ev.Model, ev.BundleID); err != nil {
				r.logf("serve: archiving active payload %s of %s: %v (previous archive kept)", ev.BundleID, ev.Model, err)
			}
		}
	}
	for _, ev := range evs {
		from := string(ev.From)
		if from == "" {
			from = "(new)"
		}
		r.logf("serve: lifecycle: model %s bundle %s %s -> %s: %s", ev.Model, ev.BundleID, from, ev.To, ev.Reason)
		if r.onTransition != nil {
			r.onTransition(ev)
		}
	}
	return err
}

// Transition moves a name's staged generation to the given stage — the
// single entry point for every stage change after placement. Legal
// moves: shadow→canary, canary→active (the atomic swap: the old active
// retires and the canary takes over user traffic), and shadow/canary→
// retired (rollback or supersession). The promotion controller
// (internal/serve/lifecycle) is the policy-driven caller; the admin
// endpoints call it for manual overrides.
func (r *Registry) Transition(name string, to Stage, reason string) error {
	return r.apply(func(now time.Time) ([]TransitionEvent, error) {
		return r.deps[name].transition(name, to, reason, now)
	})
}

// PromoteStaged advances a name's staged generation one stage (shadow→
// canary, canary→active) regardless of policy — the manual override
// behind POST /admin/lifecycle/{model}/promote.
func (r *Registry) PromoteStaged(name, reason string) (to Stage, err error) {
	err = r.apply(func(now time.Time) (evs []TransitionEvent, err error) {
		to, evs, err = r.deps[name].promote(name, reason, now)
		return evs, err
	})
	return to, err
}

// RollbackStaged retires a name's staged generation — the manual
// override behind POST /admin/lifecycle/{model}/rollback.
func (r *Registry) RollbackStaged(name, reason string) error {
	return r.Transition(name, StageRetired, reason)
}

// Add registers (or replaces) a model programmatically, straight to
// active — the pre-lifecycle semantics tests, demo mode, and bench/
// rely on. Its transition events are discarded.
func (r *Registry) Add(m *Model) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	prepare(m, now)
	r.dep(m.Name).enter(m, StageActive, "", now)
}

// AddStaged registers a staged generation programmatically at the given
// stage (shadow or canary) next to the name's current active — what
// the seam tests use to stage a generation without a bundle directory.
func (r *Registry) AddStaged(m *Model, stage Stage) error {
	if stage != StageShadow && stage != StageCanary {
		return fmt.Errorf("serve: AddStaged wants shadow or canary, got %q", stage)
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.deps[m.Name]
	if d == nil || d.active == nil {
		return fmt.Errorf("serve: staging %q without an active generation", m.Name)
	}
	prepare(m, now)
	d.enter(m, stage, "", now)
	return nil
}

// prepare fills the lifecycle defaults of a model about to be placed.
func prepare(m *Model, now time.Time) {
	if m.Stats == nil {
		m.Stats = newGenStats()
	}
	if m.TargetStage == "" {
		m.TargetStage = StageActive
	}
	m.Policy = m.Policy.withDefaults()
	if m.LoadedAt.IsZero() {
		m.LoadedAt = now
	}
}

// dep returns name's deployment record, creating it. Caller holds r.mu.
func (r *Registry) dep(name string) *deployment {
	d := r.deps[name]
	if d == nil {
		d = &deployment{}
		r.deps[name] = d
	}
	return d
}

// Get resolves a name to its ACTIVE generation — the only one user
// traffic may be answered from.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil || dep.active == nil {
		return nil, false
	}
	return dep.active, true
}

// Staged resolves a name's staged (shadow or canary) generation, if any.
func (r *Registry) Staged(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil || dep.staged == nil {
		return nil, false
	}
	return dep.staged, true
}

// genKey builds the batcher queue key addressing one exact generation,
// so mirrored rows coalesce into their own passes instead of the
// active's. The NUL separator cannot appear in a model name that
// arrived as an HTTP path segment.
func genKey(name string, generation int) string {
	return name + "\x00" + strconv.Itoa(generation)
}

// splitGenKey parses a batcher queue key; ok is false for plain names.
func splitGenKey(key string) (name string, generation int, ok bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return key, 0, false
	}
	gen, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return key[:i], 0, false
	}
	return key[:i], gen, true
}

// ResolveGen resolves a batcher queue key: a plain name maps to the
// active generation (so batches formed across a promotion run on the
// newest active), a generation-qualified key maps to that exact live
// generation (active or staged) and misses once it is retired.
func (r *Registry) ResolveGen(key string) (*Model, bool) {
	name, gen, qualified := splitGenKey(key)
	if !qualified {
		return r.Get(name)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	dep := r.deps[name]
	if dep == nil {
		return nil, false
	}
	if dep.active != nil && dep.active.Generation == gen {
		return dep.active, true
	}
	if dep.staged != nil && dep.staged.Generation == gen {
		return dep.staged, true
	}
	return nil, false
}

// Len returns the number of names with an active generation.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, dep := range r.deps {
		if dep.active != nil {
			n++
		}
	}
	return n
}

// --- read side -------------------------------------------------------

// each is the one walk every listing below derives from: fn sees every
// deployment record, in name order, under one RLock.
func (r *Registry) each(fn func(name string, d *deployment)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range slices.Sorted(maps.Keys(r.deps)) {
		fn(name, r.deps[name])
	}
}

// ListLifecycle returns the full deployment view: every live generation
// (active and staged) with its lifecycle evidence, sorted by name then
// generation. This backs /v2/models and the /debug/lifecycle view.
func (r *Registry) ListLifecycle() []ModelInfo {
	out := []ModelInfo{}
	r.each(func(_ string, d *deployment) {
		for _, m := range d.live() {
			out = append(out, m.lifecycleInfo())
		}
	})
	return out
}

// DeploymentStatus pairs a name's live generations. RetiredDisk is the
// ID of a rolled-back bundle whose bytes are still the name's on-disk
// publish — what compaction carry-forward must keep recorded as retired.
type DeploymentStatus struct {
	Name        string
	Active      *GenStatus
	Staged      *GenStatus
	RetiredDisk string
}

// Deployments snapshots every name's live generations, sorted by name.
func (r *Registry) Deployments() []DeploymentStatus {
	out := []DeploymentStatus{}
	r.each(func(name string, d *deployment) {
		if d.active != nil { // a record without one only remembers a failed load
			out = append(out, DeploymentStatus{name, genStatus(d.active), genStatus(d.staged), d.retiredDisk})
		}
	})
	return out
}

// FailedBundles returns the names of bundles whose latest on-disk
// generation failed to load (sorted). A non-empty result means the
// directory contains bundles the registry refused — the signal
// `noble-serve -check-bundles` exits non-zero on (pinned by its
// TestCheckBundlesRefusesCorruptedCalibration), and what the
// noble_registry_broken_bundles gauge counts.
func (r *Registry) FailedBundles() []string {
	out := []string{}
	r.each(func(name string, d *deployment) {
		if d.failed != "" {
			out = append(out, name)
		}
	})
	return out
}

// WritePrometheus emits the registry's deployment state: one info-style
// gauge per live generation (active and staged), the broken-bundle
// gauge, and the lifecycle evaluation series (stage-labeled re-anchor
// error histogram, mirror divergence, pass latency, transition counts).
func (r *Registry) WritePrometheus(w io.Writer) {
	type gen struct {
		info   ModelInfo
		labels string // the model/stage pair every lifecycle series carries
		snap   GenStatsSnapshot
	}
	var gens []gen
	broken := 0
	r.each(func(_ string, d *deployment) {
		for _, m := range d.live() {
			gens = append(gens, gen{m.Info(), fmt.Sprintf("model=%q,stage=%q", m.Name, m.Stage), m.Stats.Snapshot()})
		}
		if d.failed != "" {
			broken++
		}
	})
	r.mu.RLock()
	counts := maps.Clone(r.counts)
	r.mu.RUnlock()

	f := obs.NewFamily(w, "noble_model_info", "gauge", "Live model generations: precision tier, generation, and lifecycle stage per bundle (value is always 1).")
	for _, g := range gens {
		f.Sample("", fmt.Sprintf("name=%q,kind=%q,precision=%q,generation=\"%d\",stage=%q",
			g.info.Name, g.info.Kind, g.info.Precision, g.info.Generation, g.info.Stage), 1)
	}

	obs.Single(w, "noble_registry_broken_bundles", "gauge", "Bundle directories whose latest on-disk generation the registry refused to load.", broken)

	f = obs.NewFamily(w, "noble_lifecycle_transitions_total", "counter", "Generation stage transitions, by model and destination stage.")
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		model, to, _ := strings.Cut(k, "\x00")
		f.Sample("", fmt.Sprintf("model=%q,to=%q", model, to), counts[k])
	}

	f = obs.NewFamily(w, "noble_lifecycle_mirrored_rows_total", "counter", "Rows mirrored through shadow/canary generations, by model and stage.")
	for _, g := range gens {
		f.Sample("", g.labels, g.snap.Mirrored)
	}

	f = obs.NewFamily(w, "noble_lifecycle_reanchor_error_meters", "histogram", "Live model error at WiFi re-anchor fixes (gap between the generation's prediction and the fix), by model and stage.")
	for _, g := range gens {
		obs.Histogram(f, g.labels, lifecycleErrorBuckets, g.snap.ErrorHist[:], g.snap.Scores, g.snap.ErrorSumM)
	}

	f = obs.NewFamily(w, "noble_lifecycle_divergence_meters", "summary", "Mirrored-prediction divergence from the active generation, by model and stage.")
	for _, g := range gens {
		f.Sample("_sum", g.labels, g.snap.DivergenceSumM)
		f.Sample("_count", g.labels, g.snap.DivergenceN)
	}

	f = obs.NewFamily(w, "noble_lifecycle_pass_latency_ms", "gauge", "Per-row forward-pass latency p99 over a sliding window, by model generation stage.")
	for _, g := range gens {
		f.Sample("", g.labels+`,quantile="0.99"`, g.snap.P99PassMS)
	}

	f = obs.NewFamily(w, "noble_lifecycle_dropped_mirrors_total", "counter", "Mirror submissions dropped by the in-flight cap or mirror failures, by model.")
	for _, g := range gens {
		if g.info.Stage != string(StageActive) {
			f.Sample("", fmt.Sprintf("model=%q", g.info.Name), g.snap.Dropped)
		}
	}
}
