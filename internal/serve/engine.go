package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/obs"
	"noble/internal/serve/session"
	"noble/internal/store"
)

// Engine is the transport-independent inference facade: it owns the
// model registry, the micro-batchers, and the tracking-session store,
// and exposes the full serving surface — Localize, Track,
// AppendSegments, Session, DeleteSession, ModelsLifecycle, Health — as
// plain context-aware methods returning typed results and typed errors
// (*Error, with machine-readable codes and suggested HTTP statuses).
//
// HTTP is just one adapter over it — /v2 wraps Engine errors in the
// structured envelope — and embedders (tests, other transports) call
// the Engine directly. Validation lives here, so every transport
// enforces identical limits with identical messages.
type Engine struct {
	reg         *Registry
	wifiBatcher *Batcher[[]float64, core.WiFiPrediction]
	imuBatcher  *Batcher[imu.Path, core.IMUPrediction]
	sessions    *session.Store
	journal     *store.Journal // nil when persistence is off
	// retained holds journal histories that could not be restored at
	// startup (model missing); compaction re-records them instead of
	// pruning them. Written once by RestoreSessions before the listener
	// (and any compaction loop) starts, read-only afterwards.
	retained []*store.SessionHistory
	metrics  *Metrics
	tracer   *obs.Tracer // nil when tracing is off
	started  time.Time

	// Shadow/canary mirroring (see mirror.go): every mirrorEvery-th
	// localize/track request is replayed through the staged generation
	// off the request path, bounded by the mirrorSlots in-flight cap.
	mirrorEvery int64
	mirrorSeq   atomic.Int64
	mirrorSlots chan struct{}
	lcSeq       atomic.Int64 // WAL lifecycle event sequence

	draining atomic.Bool
	reqSeq   atomic.Int64
	idPrefix string
}

// NewEngine wires an Engine from cfg.
func NewEngine(cfg Config) *Engine {
	if cfg.Registry == nil {
		panic("serve: Config.Registry is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	e := &Engine{
		reg:      cfg.Registry,
		metrics:  NewMetrics(),
		sessions: session.NewStore(cfg.SessionTTL),
		journal:  cfg.Journal,
		tracer:   cfg.Tracer,
		started:  time.Now(),
	}
	// Tracing defaults ON at full sampling: observability that must be
	// switched on is off exactly when it is needed, and running every
	// test with it on is what shakes out instrumentation races.
	if e.tracer == nil && !cfg.NoTrace {
		e.tracer = obs.NewTracer(obs.Options{})
	}
	if e.journal != nil {
		// The sweeper fires this after tombstoning and unmapping the
		// session, with no locks held (journal appends can rotate, which
		// fsyncs — never under a store shard lock); by then the sweeper
		// is the session's only writer, and sequence-ordered recovery
		// keeps the close record in order regardless of file position.
		// Durability rides the next interval sync — an eviction is not a
		// client-visible acknowledgement, so it never forces an fsync.
		e.sessions.SetOnEvict(func(s *session.Session) {
			//vet:ignore journalock -- eviction runs after MarkGone under the sweeper's lock hold: the tombstone makes the sweeper the session's sole writer, so no append can race this close record
			e.journalClose(context.Background(), s, true)
		})
	}
	if cfg.MirrorRate > 0 {
		rate := cfg.MirrorRate
		if rate > 1 {
			rate = 1
		}
		e.mirrorEvery = int64(math.Round(1 / rate))
	}
	e.mirrorSlots = make(chan struct{}, mirrorInFlightCap)
	if e.journal != nil {
		// Journal every stage transition as a WAL lifecycle event so the
		// deployment pipeline's state survives crash recovery.
		e.reg.SetOnTransition(e.journalLifecycle)
	}
	// Request IDs are unique per process run: a per-start prefix plus a
	// sequence number, cheap enough for the localize hot path.
	e.idPrefix = strconv.FormatInt(e.started.UnixNano()&0xffffffffff, 36)
	e.wifiBatcher = NewBatcher("localize", cfg.BatchWindow, cfg.MaxBatch, e.predictWiFiBatch, e.metrics)
	e.imuBatcher = NewBatcher("track", cfg.BatchWindow, cfg.MaxBatch, e.predictIMUBatch, e.metrics)
	return e
}

// Registry exposes the model registry (hot-reload wiring, tests).
func (e *Engine) Registry() *Registry { return e.reg }

// Sessions exposes the tracking-session store (TTL sweeper, tests).
func (e *Engine) Sessions() *session.Store { return e.sessions }

// Metrics exposes the metrics collector shared by all transports.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Tracer exposes the request tracer (nil when tracing is off). All
// tracer methods are nil-safe, so callers use the result directly.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// BatchSnapshot copies one batcher kind's counters ("localize",
// "track"): passes, rows, max pass size, dropped rows, and the
// batch-size histogram. Embedders that need coalescing behavior as data
// rather than Prometheus text — the benchmark rig above all — diff two
// snapshots around a measured window.
func (e *Engine) BatchSnapshot(kind string) BatchSnapshot { return e.metrics.Snapshot(kind) }

// Batching reports whether micro-batching is enabled.
func (e *Engine) Batching() bool { return e.wifiBatcher.Window > 0 }

// StartDraining flips the engine into drain mode: Health reports it and
// transports reject new work with CodeDraining while in-flight requests
// (including batched passes already queued) run to completion.
func (e *Engine) StartDraining() { e.draining.Store(true) }

// Draining reports whether the engine is shutting down.
func (e *Engine) Draining() bool { return e.draining.Load() }

// NextRequestID assigns a server-side request ID (unique per process).
func (e *Engine) NextRequestID() string {
	n := e.reqSeq.Add(1)
	return e.idPrefix + "-" + strconv.FormatInt(n, 10)
}

// resolveModel looks a model up and enforces its kind.
func (e *Engine) resolveModel(name, kind string) (*Model, *Error) {
	if name == "" {
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "missing model name")
	}
	m, ok := e.reg.Get(name)
	if !ok {
		return nil, errf(CodeModelNotFound, http.StatusNotFound, "unknown model %q", name)
	}
	if m.Kind != kind {
		return nil, errf(CodeWrongModelKind, http.StatusBadRequest,
			"model %q is kind %q, endpoint wants %q", name, m.Kind, kind)
	}
	return m, nil
}

// predictWiFiBatch is the localize Batcher's callback: resolve the model
// at flush time (so batches formed across a hot reload run on the newest
// generation) and run one batched forward pass. A plain model name
// resolves to the active generation; mirrored rows arrive under a
// generation-qualified key (see genKey) so they coalesce into their own
// passes on the exact staged generation — and go unanswered once it is
// retired. Per-row pass latency is recorded on the generation, feeding
// the p99 the promotion policy bounds. The model's first pass also
// builds its fine-head screen, and its first pass of mat.PackedMinRows
// rows or more its packed weight copy (Model.packFor), inside the timed
// span: the caller waits for them.
func (e *Engine) predictWiFiBatch(model string, rows [][]float64) ([]core.WiFiPrediction, error) {
	m, ok := e.reg.ResolveGen(model)
	if !ok || m.WiFi == nil {
		name, _, _ := splitGenKey(model)
		return nil, fmt.Errorf("model %q disappeared", name)
	}
	t0 := time.Now()
	m.packFor(len(rows))
	preds := m.WiFi.PredictBatch(rows)
	if m.Stats != nil {
		m.Stats.RecordPass(time.Since(t0), len(rows))
	}
	return preds, nil
}

// predictIMUBatch is the track Batcher's callback, coalescing track
// paths and session steps into one PredictPaths pass. Generation
// resolution and latency recording mirror predictWiFiBatch.
func (e *Engine) predictIMUBatch(model string, paths []imu.Path) ([]core.IMUPrediction, error) {
	m, ok := e.reg.ResolveGen(model)
	if !ok || m.IMU == nil {
		name, _, _ := splitGenKey(model)
		return nil, fmt.Errorf("model %q disappeared", name)
	}
	t0 := time.Now()
	m.packFor(len(paths))
	preds := m.IMU.PredictPaths(paths)
	if m.Stats != nil {
		m.Stats.RecordPass(time.Since(t0), len(paths))
	}
	return preds, nil
}

// submitErr maps a batcher Submit failure: context expiry keeps its
// code; a failed pass is an inference error whose message starts
// "inference:".
func submitErr(err error) *Error {
	e := AsError(err)
	if e.Code == CodeInference {
		return errf(CodeInference, http.StatusInternalServerError, "inference: %v", err)
	}
	return e
}

// LocalizeQuery asks for positions for one or more fingerprints on one
// named Wi-Fi model.
type LocalizeQuery struct {
	Model        string
	Fingerprints [][]float64
}

// Localize validates q and answers it through the localize batcher,
// sharing a forward pass with concurrent callers. Results are in
// fingerprint order.
func (e *Engine) Localize(ctx context.Context, q LocalizeQuery) ([]core.WiFiPrediction, error) {
	m, eerr := e.resolveModel(q.Model, KindWiFi)
	if eerr != nil {
		return nil, eerr
	}
	if len(q.Fingerprints) == 0 {
		return nil, errf(CodeBadFingerprint, http.StatusBadRequest, "no fingerprints")
	}
	if len(q.Fingerprints) > maxFingerprints {
		return nil, errf(CodeBadFingerprint, http.StatusBadRequest,
			"%d fingerprints exceeds the per-request limit of %d", len(q.Fingerprints), maxFingerprints)
	}
	dim := m.WiFi.InputDim()
	for i, fp := range q.Fingerprints {
		if len(fp) != dim {
			return nil, errf(CodeBadFingerprint, http.StatusBadRequest,
				"fingerprint %d has %d features, model %q wants %d", i, len(fp), q.Model, dim)
		}
	}
	preds, err := e.wifiBatcher.Submit(ctx, q.Model, q.Fingerprints)
	if err != nil {
		return nil, submitErr(err)
	}
	e.mirrorLocalize(q.Model, q.Fingerprints, preds)
	return preds, nil
}

// PathQuery is one IMU path to decode: the anchor position plus the
// concatenated per-segment features.
type PathQuery struct {
	Start    geo.Point
	Features []float64
}

// TrackQuery asks for decoded path ends on one named IMU model.
type TrackQuery struct {
	Model string
	Paths []PathQuery
}

// Track validates q and answers it through the track batcher. Results
// are in path order.
func (e *Engine) Track(ctx context.Context, q TrackQuery) ([]core.IMUPrediction, error) {
	m, eerr := e.resolveModel(q.Model, KindIMU)
	if eerr != nil {
		return nil, eerr
	}
	if len(q.Paths) == 0 {
		return nil, errf(CodeBadPath, http.StatusBadRequest, "no paths")
	}
	if len(q.Paths) > maxPathsPerRequest {
		return nil, errf(CodeBadPath, http.StatusBadRequest,
			"%d paths exceeds the per-request limit of %d", len(q.Paths), maxPathsPerRequest)
	}
	segDim, maxLen := m.IMU.SegmentDim(), m.IMU.MaxLen()
	paths := make([]imu.Path, len(q.Paths))
	for i, p := range q.Paths {
		n := len(p.Features)
		if n == 0 || n%segDim != 0 || n/segDim > maxLen {
			return nil, errf(CodeBadPath, http.StatusBadRequest,
				"path %d has %d feature values; model %q wants a non-empty multiple of %d up to %d segments",
				i, n, q.Model, segDim, maxLen)
		}
		paths[i] = imu.Path{Start: p.Start, NumSegments: n / segDim, Features: p.Features}
	}
	preds, err := e.imuBatcher.Submit(ctx, q.Model, paths)
	if err != nil {
		return nil, submitErr(err)
	}
	e.mirrorTrack(q.Model, paths, preds)
	return preds, nil
}

// SegmentQuery appends IMU segments (and optionally fuses a WiFi fix)
// into one device's tracking session. The first query for a session ID
// creates it and must name the IMU model plus an origin — an explicit
// Start anchor, a WiFi fingerprint, or both.
type SegmentQuery struct {
	Session string
	Model   string     // IMU model; required on create
	Start   *geo.Point // origin anchor (create only)
	Window  int        // decode window in segments (create only; default 2)

	Features []float64 // k × segment_dim, appended in order

	WiFiModel   string
	Fingerprint []float64

	// Anchor re-anchors an existing session at an explicit absolute
	// position without running the localize path — the journal-replay
	// and surveyed-ground-truth entry. Mutually exclusive with a WiFi
	// fingerprint; not exposed on the HTTP wire.
	Anchor *geo.Point
}

// StepResult is one decoded tracking step.
type StepResult struct {
	Step int // 1-based lifetime step index
	core.IMUPrediction
}

// SessionState describes a session after an Engine call: identity,
// what the call did (Created, ReAnchored, per-step Results), and the
// tracker's current estimate.
type SessionState struct {
	Session    string
	Model      string
	Created    bool
	ReAnchored bool
	Anchor     *geo.Point // the fused WiFi fix
	Steps      int
	Position   geo.Point // current end estimate
	Class      int
	Traveled   geo.Point // displacement since origin / last fix
	Results    []StepResult
}

// checkSegmentsQ validates a segment payload width against a model's
// segment width and returns the segment count.
func checkSegmentsQ(n, segDim int, model string) (int, *Error) {
	if n%segDim != 0 {
		return 0, errf(CodeBadSegment, http.StatusBadRequest,
			"%d feature values is not a multiple of model %q's segment_dim %d", n, model, segDim)
	}
	k := n / segDim
	if k > maxSegmentsPerRequest {
		return 0, errf(CodeBadSegment, http.StatusBadRequest,
			"%d segments exceeds the per-request limit of %d", k, maxSegmentsPerRequest)
	}
	return k, nil
}

// AppendSegments runs one session request: fuse the WiFi fix (if any),
// create the session on first use, then decode each appended segment as
// one tracking step through the track batcher.
//
// On a mid-request inference failure the returned error has
// CodeInference AND the returned state is still populated (Session set,
// Results holding the steps that DID commit); the failing segment and
// everything after it were not applied, so the caller reports the
// committed prefix and the client resends exactly the unreported tail.
// Every other error returns a zero state.
func (e *Engine) AppendSegments(ctx context.Context, q SegmentQuery) (SessionState, error) {
	var zero SessionState

	// Fuse the WiFi fix first: it may be the origin of a brand-new
	// session, and for an existing one the paper's tracking setup
	// re-anchors before dead reckoning continues. The localize pass runs
	// through the same batcher as stateless localize traffic.
	var fix *core.WiFiPrediction
	if q.Anchor != nil && (len(q.Fingerprint) > 0 || q.WiFiModel != "") {
		return zero, errf(CodeBadRequest, http.StatusBadRequest,
			"an explicit anchor and a wifi fingerprint cannot be combined")
	}
	if len(q.Fingerprint) > 0 {
		wm, eerr := e.resolveModel(q.WiFiModel, KindWiFi)
		if eerr != nil {
			return zero, eerr
		}
		if dim := wm.WiFi.InputDim(); len(q.Fingerprint) != dim {
			return zero, errf(CodeBadFingerprint, http.StatusBadRequest,
				"fingerprint has %d features, model %q wants %d", len(q.Fingerprint), q.WiFiModel, dim)
		}
		preds, err := e.wifiBatcher.Submit(ctx, q.WiFiModel, [][]float64{q.Fingerprint})
		if err != nil {
			fixErr := AsError(err)
			if fixErr.Code == CodeInference {
				fixErr = errf(CodeInference, http.StatusInternalServerError, "localizing fix: %v", err)
			}
			return zero, fixErr
		}
		fix = &preds[0]
	} else if q.WiFiModel != "" {
		return zero, errf(CodeBadRequest, http.StatusBadRequest, "wifi_model given without a fingerprint")
	}

	id := q.Session
	sess, ok := e.sessions.Get(id)
	created := false
	lockHeld := false // the create path locks the session pre-publication
	if !ok {
		// Validate the whole creation spec — including the segment
		// payload — outside the shard lock and BEFORE inserting anything:
		// a rejected request must not leave a session behind. The init
		// closure then only assembles state; racing creators both pass
		// validation and exactly one wins.
		if q.Model == "" {
			return zero, errf(CodeBadRequest, http.StatusBadRequest, "new session %q needs an IMU model name", id)
		}
		m, eerr := e.resolveModel(q.Model, KindIMU)
		if eerr != nil {
			return zero, eerr
		}
		if _, eerr := checkSegmentsQ(len(q.Features), m.IMU.SegmentDim(), q.Model); eerr != nil {
			return zero, eerr
		}
		var start geo.Point
		switch {
		case q.Start != nil:
			start = *q.Start
		case fix != nil:
			start = fix.Pos
		default:
			return zero, errf(CodeBadRequest, http.StatusBadRequest,
				"new session %q needs a start anchor or a wifi fingerprint", id)
		}
		window := q.Window
		if window <= 0 {
			window = defaultSessionWindow
		}
		var createEv *store.Event
		sess, created, _ = e.sessions.GetOrCreate(id, func() (*session.Session, error) {
			s := session.New(id, q.Model, m.IMU.NewPathTracker(start, window))
			// Only capture the create record here — the init closure runs
			// under the store's shard write lock, which must never wait on
			// journal I/O (an append can rotate, which fsyncs). Reserving
			// the sequence number now (seq 1, before publication) is what
			// lets the record be written after the lock is gone: recovery
			// folds a session's records in sequence order, not file order,
			// so a step journaled by a faster racer cannot get ahead of it.
			createEv = e.captureCreate(s)
			// Lock the session before it is published (uncontended — no
			// other goroutine can hold an unpublished session's mutex, and
			// locking costs no I/O, so the shard lock is not held up). A
			// racing request resolving the session from the map then blocks
			// on this lock until the create record below is appended:
			// under -fsync=always its commit fsyncs the same shard, so it
			// can never ack a later-seq record before seq 1 is durable.
			s.Lock()
			return s, nil
		})
		if created {
			lockHeld = true
			if createEv != nil {
				e.journalAppend(ctx, createEv)
			}
		}
	}
	if q.Model != "" && q.Model != sess.Model {
		if lockHeld {
			sess.Unlock()
		}
		return zero, errf(CodeSessionConflict, http.StatusConflict,
			"session %q is bound to model %q, not %q", id, sess.Model, q.Model)
	}

	if !lockHeld {
		lockWait := obs.Begin(ctx, obs.StageSessionLock)
		sess.Lock()
		lockWait.End()
	}
	defer sess.Unlock()
	// Stamp activity when the call finishes, not when the lock is
	// acquired (deferred args evaluate immediately; the closure does not).
	defer func() { sess.Touch(time.Now()) }()

	// The TTL sweeper (or a concurrent delete) may have removed this
	// session between the map lookup and the lock acquire — at a TTL
	// boundary the sweeper's TryLock wins that race. Removal always sets
	// the tombstone first, under this same lock, so checking it here
	// detects the eviction; past this point neither the sweeper (which
	// only TryLocks) nor a delete (which takes the lock) can remove the
	// session until we unlock. Without this check a step would apply to
	// an orphaned session and silently vanish.
	if sess.Gone() {
		return zero, errf(CodeSessionNotFound, http.StatusNotFound, "session %q expired", id)
	}
	// Request-boundary durability: under -fsync=always everything this
	// request journals is fsynced (group-committed) before the response.
	if e.journal != nil {
		defer e.journalCommit(ctx, id)
	}

	// Validate the segment payload before mutating anything: a rejected
	// request must leave the session untouched (in particular, its fix
	// must not re-anchor a trajectory whose segments were rejected).
	segDim := sess.Tracker.SegmentDim()
	k, eerr := checkSegmentsQ(len(q.Features), segDim, sess.Model)
	if eerr != nil {
		return zero, eerr
	}

	state := SessionState{Session: id, Model: sess.Model, Created: created}
	if fix != nil || q.Anchor != nil {
		var pos geo.Point
		if q.Anchor != nil {
			pos = *q.Anchor
		} else {
			pos = fix.Pos
		}
		// The fix is a free live label: before it snaps the trajectory,
		// score every live generation's prediction against it — the
		// active IMU's dead-reckoned estimate, the staged IMU's decode of
		// the same window, and (when the fix came from a fingerprint) the
		// staged WiFi's localization. This is the ground-truth signal the
		// promotion controller weighs.
		if !created {
			e.scoreReAnchor(sess, pos, q.WiFiModel, q.Fingerprint)
		}
		// On a fresh session whose origin IS the fix this is a no-op
		// (empty window, estimate already at the fix); otherwise it snaps
		// the trajectory to the absolute position.
		sess.Tracker.ReAnchor(pos)
		sess.ReAnchors.Add(1)
		e.sessions.NoteReAnchor()
		e.journalReAnchor(ctx, sess, pos, q.WiFiModel, q.Fingerprint)
		state.ReAnchored = true
		state.Anchor = &pos
	}

	// Each appended segment is one tracking step: the windowed path goes
	// through the track batcher, coalescing with other devices' steps
	// (and stateless track traffic) into shared PredictPaths passes.
	var committed []core.IMUPrediction // journaled alongside their segments
	for i := 0; i < k; i++ {
		seg := q.Features[i*segDim : (i+1)*segDim]
		path, err := sess.Tracker.Step(seg)
		if err != nil {
			return zero, errf(CodeBadSegment, http.StatusBadRequest, "segment %d: %v", i, err)
		}
		preds, err := e.imuBatcher.Submit(ctx, sess.Model, []imu.Path{path})
		if err != nil {
			// Step is pure, so this segment (and the ones after it) were
			// NOT applied; the committed prefix is reported with the
			// error so the client resends only the tail. The journal
			// records exactly that prefix — restore must reproduce the
			// committed state, not the requested one.
			if i > 0 {
				sess.Steps.Add(int64(i))
				e.sessions.NoteSteps(i)
				e.journalSteps(ctx, sess, segDim, q.Features[:i*segDim], committed)
			}
			e.fillSessionState(&state, sess)
			stepErr := AsError(err)
			if stepErr.Code == CodeInference {
				stepErr = errf(CodeInference, http.StatusInternalServerError, "inference at segment %d: %v", i, err)
			}
			return state, stepErr
		}
		sess.Tracker.Commit(seg, preds[0])
		if e.journal != nil {
			committed = append(committed, preds[0])
		}
		state.Results = append(state.Results, StepResult{
			Step:          sess.Tracker.Steps(),
			IMUPrediction: preds[0],
		})
	}
	if k > 0 {
		sess.Steps.Add(int64(k))
		e.sessions.NoteSteps(k)
		e.journalSteps(ctx, sess, segDim, q.Features[:k*segDim], committed)
	}

	e.fillSessionState(&state, sess)
	return state, nil
}

// Session returns a session's current state.
func (e *Engine) Session(id string) (SessionState, error) {
	sess, ok := e.sessions.Get(id)
	if !ok {
		return SessionState{}, errf(CodeSessionNotFound, http.StatusNotFound, "unknown session %q", id)
	}
	sess.Lock()
	defer sess.Unlock()
	if sess.Gone() {
		return SessionState{}, errf(CodeSessionNotFound, http.StatusNotFound, "unknown session %q", id)
	}
	state := SessionState{Session: id, Model: sess.Model}
	e.fillSessionState(&state, sess)
	return state, nil
}

// DeleteSession ends a session. It takes the session lock, so a delete
// racing an in-flight append waits for the append to finish (the append
// is acknowledged and journaled) rather than yanking the session out
// from under it; the tombstone then stops any later-locking request
// from updating the orphaned state.
func (e *Engine) DeleteSession(id string) error {
	sess, ok := e.sessions.Get(id)
	if !ok {
		return errf(CodeSessionNotFound, http.StatusNotFound, "unknown session %q", id)
	}
	sess.Lock()
	defer sess.Unlock()
	if sess.Gone() {
		// Lost the race to the sweeper or another delete.
		return errf(CodeSessionNotFound, http.StatusNotFound, "unknown session %q", id)
	}
	sess.MarkGone()
	e.sessions.Delete(id)
	e.journalClose(context.Background(), sess, false)
	if e.journal != nil {
		e.journalCommit(context.Background(), id)
	}
	return nil
}

// fillSessionState copies the tracker's current estimate into state.
// The caller holds the session lock.
func (e *Engine) fillSessionState(state *SessionState, sess *session.Session) {
	est := sess.Tracker.Estimate()
	state.Steps = sess.Tracker.Steps()
	state.Position = est.End
	state.Class = est.Class
	state.Traveled = sess.Tracker.Traveled()
}

// ModelsLifecycle lists every live generation — active and staged —
// with lifecycle state and evaluation evidence (the /v2/models and
// /debug view).
func (e *Engine) ModelsLifecycle() []ModelInfo { return e.reg.ListLifecycle() }

// HealthInfo is the Engine's liveness summary.
type HealthInfo struct {
	Status   string
	Models   int
	Batching bool
	Sessions int
	Uptime   time.Duration
	Draining bool
}

// Health reports engine liveness.
func (e *Engine) Health() HealthInfo {
	status := "ok"
	if e.Draining() {
		status = "draining"
	}
	return HealthInfo{
		Status:   status,
		Models:   e.reg.Len(),
		Batching: e.Batching(),
		Sessions: e.sessions.Len(),
		Uptime:   time.Since(e.started),
		Draining: e.Draining(),
	}
}
