package serve

import (
	"context"
	"fmt"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/obs"
	"noble/internal/serve/session"
	"noble/internal/store"
)

// This file is the Engine's durability glue: it maps session mutations
// onto journal events (under the session lock, so one session's records
// are in mutation order), restores sessions from a recovered journal
// before the listener opens, and drives periodic compaction so recovery
// cost tracks the live-session count.
//
// Journaling is strictly off the inference path: localize and stateless
// track requests never touch the journal, and session appends only pay
// a buffered write (plus, under -fsync=always, one group-committed
// fsync per request). A journal append failure is logged and counted
// but never fails the request — the server keeps serving; durability
// degrades, silently losing nothing that /metrics does not show.

// Journal exposes the engine's durability journal (nil when off).
func (e *Engine) Journal() *store.Journal { return e.journal }

// journalAppend writes one event, absorbing (but counting) failures.
// The append is a buffered write (no fsync), but it still shows up as a
// span: a rotation-triggered fsync or a filesystem stall on this path
// is exactly the kind of tail latency the tracer exists to attribute.
func (e *Engine) journalAppend(ctx context.Context, ev *store.Event) {
	sp := obs.Begin(ctx, obs.StageJournalAppend)
	err := e.journal.Append(ev)
	sp.End()
	if err != nil {
		e.reg.logf("serve: journal append (%s %s): %v", ev.Type, ev.Session, err)
	}
}

// captureCreate builds a session's create record (reserving sequence
// number 1) without touching the journal. It runs inside the store's
// GetOrCreate init closure — pre-publication, so the field reads are
// exclusive and cheap — and the caller appends the record after the
// shard lock is released; sequence-ordered recovery makes the late file
// position harmless. Returns nil when journaling is off.
func (e *Engine) captureCreate(s *session.Session) *store.Event {
	if e.journal == nil {
		return nil
	}
	tr := s.Tracker
	origin := tr.Origin()
	return &store.Event{
		Type:    store.EvCreate,
		Session: s.ID,
		Gen:     s.CreatedAt.UnixNano(),
		Seq:     s.NextSeq(),
		Time:    time.Now().UnixNano(),
		Create: &store.CreateEvent{
			Model:  s.Model,
			StartX: origin.X,
			StartY: origin.Y,
			Window: tr.Window(),
			SegDim: tr.SegmentDim(),
		},
	}
}

// journalReAnchor records an absolute fix fused into the trajectory.
// The decoded position is authoritative (restore applies it without a
// WiFi model); the fingerprint rides along for provenance and replay.
// Caller holds the session lock.
func (e *Engine) journalReAnchor(ctx context.Context, s *session.Session, pos geo.Point, wifiModel string, fingerprint []float64) {
	if e.journal == nil {
		return
	}
	e.journalAppend(ctx, &store.Event{
		Type:    store.EvReAnchor,
		Session: s.ID,
		Gen:     s.CreatedAt.UnixNano(),
		Seq:     s.NextSeq(),
		Time:    time.Now().UnixNano(),
		ReAnchor: &store.ReAnchorEvent{
			X: pos.X, Y: pos.Y,
			WiFiModel:   wifiModel,
			Fingerprint: fingerprint,
		},
	})
}

// journalSteps records a batch of committed segments with their decoded
// predictions — replaying Commit(seg, pred) pairs restores the tracker
// without inference. Caller holds the session lock; feats is the flat
// committed prefix (len(preds) × segDim).
func (e *Engine) journalSteps(ctx context.Context, s *session.Session, segDim int, feats []float64, preds []core.IMUPrediction) {
	if e.journal == nil {
		return
	}
	recs := make([]store.PredRecord, len(preds))
	for i, p := range preds {
		recs[i] = store.PredRecord{
			EndX: p.End.X, EndY: p.End.Y,
			Class: int32(p.Class),
			DispX: p.Displacement.X, DispY: p.Displacement.Y,
		}
	}
	e.journalAppend(ctx, &store.Event{
		Type:    store.EvSteps,
		Session: s.ID,
		Gen:     s.CreatedAt.UnixNano(),
		Seq:     s.NextSeq(),
		Time:    time.Now().UnixNano(),
		Steps: &store.StepsEvent{
			SegDim:   segDim,
			Count:    len(preds),
			Features: feats,
			Preds:    recs,
		},
	})
}

// journalClose records a session's end (delete or eviction). Caller
// holds the session lock.
func (e *Engine) journalClose(ctx context.Context, s *session.Session, evicted bool) {
	if e.journal == nil {
		return
	}
	e.journalAppend(ctx, &store.Event{
		Type:    store.EvClose,
		Session: s.ID,
		Gen:     s.CreatedAt.UnixNano(),
		Seq:     s.NextSeq(),
		Time:    time.Now().UnixNano(),
		Close:   &store.CloseEvent{Evicted: evicted},
	})
}

// journalCommit marks a request boundary (group-committed fsync under
// -fsync=always). The journal_fsync span is the durability tax a
// request actually paid — near zero when it group-committed behind a
// neighbor's sync, a full fsync when it led one.
func (e *Engine) journalCommit(ctx context.Context, id string) {
	sp := obs.Begin(ctx, obs.StageJournalFsync)
	err := e.journal.Commit(id)
	sp.End()
	if err != nil {
		e.reg.logf("serve: journal commit (%s): %v", id, err)
	}
}

// journalLifecycle records one stage transition as a WAL lifecycle
// event — the registry's OnTransition hook when persistence is on. The
// event is keyed by model (store.LifecycleKey), not by session, so one
// model's transitions share a shard and recover in append order; the
// engine-wide sequence breaks ties among same-nanosecond events.
func (e *Engine) journalLifecycle(ev TransitionEvent) {
	if e.journal == nil {
		return
	}
	//vet:ignore journalock -- lifecycle events are keyed by model under the reserved lifecycle namespace, not by session: there is no session (or session lock) involved, and the registry serializes transition delivery
	e.journalAppend(context.Background(), &store.Event{
		Type:    store.EvLifecycle,
		Session: store.LifecycleKey(ev.Model),
		Seq:     e.lcSeq.Add(1),
		Time:    ev.Time.UnixNano(),
		Lifecycle: &store.LifecycleEvent{
			Model:    ev.Model,
			BundleID: ev.BundleID,
			From:     string(ev.From),
			To:       string(ev.To),
			Reason:   ev.Reason,
		},
	})
}

// RecoveredStages reduces a recovery's lifecycle events to the latest
// stage per (model, bundle) — keyed as Registry.SetRecoveredStages
// expects — so the first Reload after a restart re-places each bundle
// at the stage it held at the crash. Later events win by (Time, Seq);
// Seq alone cannot order events because it restarts at 1 each boot.
func RecoveredStages(rec *store.Recovery) map[string]Stage {
	type order struct{ t, seq int64 }
	latest := make(map[string]order)
	out := make(map[string]Stage)
	for _, ev := range rec.Lifecycle {
		l := ev.Lifecycle
		k := recoveredKey(l.Model, l.BundleID)
		o := order{ev.Time, ev.Seq}
		if prev, ok := latest[k]; ok && (prev.t > o.t || (prev.t == o.t && prev.seq > o.seq)) {
			continue
		}
		latest[k] = o
		out[k] = Stage(l.To)
	}
	return out
}

// lifecycleCarryEvents builds one current-stage lifecycle event per
// disk-backed live generation — plus one retired event per rolled-back
// bundle whose bytes are still on disk — for compaction carry-forward.
// Without this, compaction would prune the segments holding the stage
// history, and a post-compaction restart would re-place a rolled-back
// bundle in shadow (resurrecting it) or restart a canary's evaluation
// from scratch.
func (e *Engine) lifecycleCarryEvents() []*store.Event {
	now := time.Now().UnixNano()
	var evs []*store.Event
	add := func(model, bundleID string, stage Stage) {
		if bundleID == "" {
			return // programmatic generation; nothing on disk to recover
		}
		evs = append(evs, &store.Event{
			Type:    store.EvLifecycle,
			Session: store.LifecycleKey(model),
			Seq:     e.lcSeq.Add(1),
			Time:    now,
			Lifecycle: &store.LifecycleEvent{
				Model:    model,
				BundleID: bundleID,
				From:     string(stage),
				To:       string(stage),
				Reason:   "compaction carry-forward",
			},
		})
	}
	for _, d := range e.reg.Deployments() {
		if d.Active != nil {
			add(d.Name, d.Active.BundleID, d.Active.Stage)
		}
		if d.Staged != nil {
			add(d.Name, d.Staged.BundleID, d.Staged.Stage)
		}
		add(d.Name, d.RetiredDisk, StageRetired)
	}
	return evs
}

// RestoreSummary reports a startup restore.
type RestoreSummary struct {
	Restored int
	Skipped  int // model missing/mismatched or history damaged
	Closed   int // sessions that ended before the crash (not restored)
	Torn     int64
}

// RestoreSessions folds a recovered journal into the session store:
// every live history becomes a session with bit-identical tracker state
// (snapshot base, then Commit/ReAnchor replay of the post-snapshot
// events — no inference runs). Call once after NewEngine, before the
// listener opens and before any sweeper starts. Sessions whose model is
// gone or whose history is damaged are skipped and counted, not fatal:
// a model swap must not take restart-recovery down with it.
func (e *Engine) RestoreSessions(rec *store.Recovery) RestoreSummary {
	sum := RestoreSummary{Torn: rec.Stats.TornRecords + rec.Stats.BadRecords}
	sum.Closed = rec.Stats.Closed
	sum.Skipped = rec.Stats.Damaged
	for _, h := range rec.Live() {
		sess, err := e.restoreSession(h)
		if err != nil {
			e.reg.logf("serve: retaining session %q in the journal without restoring it: %v", h.ID, err)
			sum.Skipped++
			// Keep the history alive on disk: compaction re-records it
			// (see CompactJournal) instead of pruning it away, so a later
			// restart — e.g. after the missing model bundle is republished
			// — can still restore it, and replay still sees it.
			e.retained = append(e.retained, h)
			continue
		}
		e.sessions.GetOrCreate(h.ID, func() (*session.Session, error) { return sess, nil })
		sum.Restored++
	}
	if e.journal != nil {
		e.journal.NoteRecovered(sum.Restored, sum.Skipped)
	}
	return sum
}

// restoreSession rebuilds one session from its history.
func (e *Engine) restoreSession(h *store.SessionHistory) (*session.Session, error) {
	modelName := ""
	if h.Snapshot != nil {
		modelName = h.Snapshot.Model
	} else if len(h.Events) > 0 && h.Events[0].Type == store.EvCreate {
		modelName = h.Events[0].Create.Model
	}
	if modelName == "" {
		return nil, fmt.Errorf("history has no model binding")
	}
	m, ok := e.reg.Get(modelName)
	if !ok || m.IMU == nil {
		return nil, fmt.Errorf("model %q not registered (or not an IMU model)", modelName)
	}

	var (
		tr        *core.PathTracker
		err       error
		createdAt = time.Unix(0, h.Gen)
		steps     int64
		reanchors int64
	)
	if snap := h.Snapshot; snap != nil {
		tr, err = m.IMU.RestoreTracker(trackerStateFromSnapshot(&snap.Tracker))
		if err != nil {
			return nil, err
		}
		steps, reanchors = snap.Steps, snap.ReAnchors
	}
	for _, ev := range h.Events {
		switch ev.Type {
		case store.EvCreate:
			if tr != nil {
				return nil, fmt.Errorf("create event on an already-seeded tracker")
			}
			c := ev.Create
			if c.SegDim != m.IMU.SegmentDim() {
				return nil, fmt.Errorf("recorded segment_dim %d, model %q now wants %d", c.SegDim, modelName, m.IMU.SegmentDim())
			}
			tr = m.IMU.NewPathTracker(geo.Point{X: c.StartX, Y: c.StartY}, c.Window)
		case store.EvSteps:
			s := ev.Steps
			if tr == nil {
				return nil, fmt.Errorf("steps before create")
			}
			if s.SegDim != tr.SegmentDim() {
				return nil, fmt.Errorf("recorded segment_dim %d, tracker wants %d", s.SegDim, tr.SegmentDim())
			}
			for i := 0; i < s.Count; i++ {
				tr.Commit(s.Features[i*s.SegDim:(i+1)*s.SegDim], core.IMUPrediction{
					End:          geo.Point{X: s.Preds[i].EndX, Y: s.Preds[i].EndY},
					Class:        int(s.Preds[i].Class),
					Displacement: geo.Point{X: s.Preds[i].DispX, Y: s.Preds[i].DispY},
				})
			}
			steps += int64(s.Count)
		case store.EvReAnchor:
			if tr == nil {
				return nil, fmt.Errorf("reanchor before create")
			}
			tr.ReAnchor(geo.Point{X: ev.ReAnchor.X, Y: ev.ReAnchor.Y})
			reanchors++
		default:
			return nil, fmt.Errorf("unexpected %s event in a live history", ev.Type)
		}
	}
	if tr == nil {
		return nil, fmt.Errorf("history has no snapshot and no create event")
	}
	lastUsed := createdAt
	if h.LastTime > 0 {
		lastUsed = time.Unix(0, h.LastTime)
	}
	return session.Restore(h.ID, modelName, tr, createdAt, lastUsed, steps, reanchors, h.LastSeq), nil
}

// trackerStateFromSnapshot maps the journal's plain-data tracker
// snapshot onto the core type.
func trackerStateFromSnapshot(t *store.TrackerSnapshot) core.TrackerState {
	anchors := make([]geo.Point, len(t.Anchors)/2)
	for i := range anchors {
		anchors[i] = geo.Point{X: t.Anchors[2*i], Y: t.Anchors[2*i+1]}
	}
	return core.TrackerState{
		Window: t.Window,
		SegDim: t.SegDim,
		Origin: geo.Point{X: t.OriginX, Y: t.OriginY},
		Est: core.IMUPrediction{
			End:          geo.Point{X: t.Est.EndX, Y: t.Est.EndY},
			Class:        int(t.Est.Class),
			Displacement: geo.Point{X: t.Est.DispX, Y: t.Est.DispY},
		},
		Steps:    t.Steps,
		Segments: t.Segments,
		Anchors:  anchors,
	}
}

// snapshotSession captures one session's compacted state. Caller holds
// the session lock.
func snapshotSession(s *session.Session) store.SessionSnapshot {
	st := s.Tracker.State()
	anchors := make([]float64, 0, 2*len(st.Anchors))
	for _, a := range st.Anchors {
		anchors = append(anchors, a.X, a.Y)
	}
	return store.SessionSnapshot{
		ID:        s.ID,
		Model:     s.Model,
		Gen:       s.CreatedAt.UnixNano(),
		LastUsed:  s.LastUsed().UnixNano(),
		Seq:       s.Seq(),
		Steps:     s.Steps.Load(),
		ReAnchors: s.ReAnchors.Load(),
		Tracker: store.TrackerSnapshot{
			Window:  st.Window,
			SegDim:  st.SegDim,
			OriginX: st.Origin.X,
			OriginY: st.Origin.Y,
			Est: store.PredRecord{
				EndX: st.Est.End.X, EndY: st.Est.End.Y,
				Class: int32(st.Est.Class),
				DispX: st.Est.Displacement.X, DispY: st.Est.Displacement.Y,
			},
			Steps:    st.Steps,
			Segments: st.Segments,
			Anchors:  anchors,
		},
	}
}

// CompactJournal writes one round of compaction snapshots: per journal
// shard, the live sessions hashing there are snapshotted (briefly
// holding each session lock, never a store shard lock) and the WAL
// segments they supersede are pruned. Sessions that could not be
// restored at startup (model missing) are carried forward — their base
// snapshot rides into the new snapshot file and their event records are
// re-appended into the fresh segment — so compaction never erases a
// trajectory just because its model is temporarily gone.
func (e *Engine) CompactJournal() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Compact(func(shard int) []store.SessionSnapshot {
		var snaps []store.SessionSnapshot
		e.sessions.ForEach(func(s *session.Session) {
			if e.journal.ShardFor(s.ID) != shard {
				return
			}
			s.Lock()
			if !s.Gone() {
				snaps = append(snaps, snapshotSession(s))
			}
			s.Unlock()
		})
		for _, h := range e.retained {
			if e.journal.ShardFor(h.ID) != shard {
				continue
			}
			if h.Snapshot != nil {
				snaps = append(snaps, *h.Snapshot)
			}
			for i := range h.Events {
				// Duplicates across compaction rounds are harmless:
				// recovery deduplicates by (Gen, Seq).
				e.journalAppend(context.Background(), &h.Events[i])
			}
		}
		// Re-record lifecycle stage state the same way: these appends land
		// in the post-rotation segment, so they survive the prune that
		// takes the original stage events away.
		for _, ev := range e.lifecycleCarryEvents() {
			if e.journal.ShardFor(ev.Session) != shard {
				continue
			}
			e.journalAppend(context.Background(), ev)
		}
		return snaps
	})
}

// RunJournalCompaction compacts at the given interval until ctx is
// done. interval <= 0 disables compaction (the WAL still rotates by
// size; recovery replays every segment).
func (e *Engine) RunJournalCompaction(ctx context.Context, interval time.Duration) {
	if e.journal == nil || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := e.CompactJournal(); err != nil {
				e.reg.logf("serve: journal compaction: %v", err)
			}
		}
	}
}
