package serve

// This file is the shadow-evaluation half of the deployment pipeline:
// feeding staged (shadow/canary) model generations real traffic without
// ever letting them answer it, and scoring every live generation
// against the ground truth that re-anchor fixes provide.
//
// Two signals accumulate into a staged generation's GenStats:
//
//   - MIRRORING: a deterministic 1-in-N sample of localize/track
//     requests is replayed through the staged generation after the
//     active generation has already answered the user. The replay rides
//     the same micro-batchers under a generation-qualified queue key
//     (genKey), so mirrored rows coalesce into their own forward passes
//     — the active's batches never grow — and runs in a bounded pool of
//     background goroutines, so a slow staged model sheds mirrors
//     (counted as drops) instead of backing up the request path. The
//     recorded divergence is the mean distance between the staged and
//     active predictions for the same inputs.
//
//   - RE-ANCHOR SCORING: when a session fuses an absolute fix, the gap
//     between each generation's prediction and the fix measures real
//     model error with no held-out set (the NObLe loop's free labels).
//     The active IMU's dead-reckoned estimate is scored synchronously
//     (it is already computed); the staged IMU decodes the same feature
//     window asynchronously; a staged WiFi generation localizes the
//     fix's own fingerprint. Scoring runs on every fix regardless of
//     the mirror sampling rate — fixes are rare and are the only
//     ground-truth signal.
//
// Nothing here fails a user request: mirror errors and shed mirrors
// are counted on the staged generation and otherwise dropped.

import (
	"context"
	"math"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/serve/session"
)

const (
	// mirrorInFlightCap bounds concurrent background mirror/score
	// submissions; beyond it mirrors are shed and counted.
	mirrorInFlightCap = 64
	// mirrorTimeout bounds one background mirror submission.
	mirrorTimeout = 2 * time.Second
)

// shouldMirror deterministically samples every mirrorEvery-th request
// (a shared atomic counter, so the rate holds across goroutines).
func (e *Engine) shouldMirror() bool {
	if e.mirrorEvery <= 0 {
		return false
	}
	return e.mirrorSeq.Add(1)%e.mirrorEvery == 0
}

// acquireMirrorSlot claims an in-flight slot or sheds the mirror.
func (e *Engine) acquireMirrorSlot(st *Model) bool {
	select {
	case e.mirrorSlots <- struct{}{}:
		return true
	default:
		st.Stats.Drop()
		return false
	}
}

// mirrorLocalize replays a sampled localize request through the staged
// generation of the same name, off the request path, and records the
// positional divergence from the primary (active) predictions.
func (e *Engine) mirrorLocalize(name string, rows [][]float64, primary []core.WiFiPrediction) {
	if e.mirrorEvery <= 0 || len(rows) == 0 {
		return
	}
	st, ok := e.reg.Staged(name)
	if !ok || st.WiFi == nil || st.WiFi.InputDim() != len(rows[0]) {
		return
	}
	if !e.shouldMirror() || !e.acquireMirrorSlot(st) {
		return
	}
	prim := make([]geo.Point, len(primary))
	for i := range primary {
		prim[i] = primary[i].Pos
	}
	key := genKey(name, st.Generation)
	go func() {
		defer func() { <-e.mirrorSlots }()
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		preds, err := e.wifiBatcher.Submit(ctx, key, rows)
		if err != nil || len(preds) != len(prim) {
			st.Stats.Drop()
			return
		}
		var sum float64
		for i := range preds {
			sum += distM(preds[i].Pos.X, preds[i].Pos.Y, prim[i].X, prim[i].Y)
		}
		st.Stats.RecordMirror(len(preds), sum/float64(len(preds)))
	}()
}

// mirrorTrack replays a sampled track request through the staged IMU
// generation, recording end-position divergence from the primary.
func (e *Engine) mirrorTrack(name string, paths []imu.Path, primary []core.IMUPrediction) {
	if e.mirrorEvery <= 0 || len(paths) == 0 {
		return
	}
	st, ok := e.reg.Staged(name)
	if !ok || st.IMU == nil {
		return
	}
	segDim, maxLen := st.IMU.SegmentDim(), st.IMU.MaxLen()
	for _, p := range paths {
		if len(p.Features) != p.NumSegments*segDim || p.NumSegments > maxLen {
			return // staged generation has a different feature layout
		}
	}
	if !e.shouldMirror() || !e.acquireMirrorSlot(st) {
		return
	}
	prim := make([]geo.Point, len(primary))
	for i := range primary {
		prim[i] = primary[i].End
	}
	key := genKey(name, st.Generation)
	go func() {
		defer func() { <-e.mirrorSlots }()
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		preds, err := e.imuBatcher.Submit(ctx, key, paths)
		if err != nil || len(preds) != len(prim) {
			st.Stats.Drop()
			return
		}
		var sum float64
		for i := range preds {
			sum += distM(preds[i].End.X, preds[i].End.Y, prim[i].X, prim[i].Y)
		}
		st.Stats.RecordMirror(len(preds), sum/float64(len(preds)))
	}()
}

// scoreReAnchor scores every live generation against an absolute fix
// about to be fused into sess. Caller holds the session lock; the fix
// has not yet re-anchored the tracker, so the tracker state still holds
// the dead-reckoned window the fix will correct.
func (e *Engine) scoreReAnchor(sess *session.Session, fixPos geo.Point, wifiModel string, fingerprint []float64) {
	ts := sess.Tracker.State()
	if len(ts.Segments) > 0 {
		// Active IMU: its committed estimate decoded this exact window,
		// so the gap to the fix is its live error, free of charge.
		if am, ok := e.reg.Get(sess.Model); ok && am.IMU != nil && am.Stats != nil {
			am.Stats.RecordScore(distM(ts.Est.End.X, ts.Est.End.Y, fixPos.X, fixPos.Y))
		}
		e.scoreStagedIMU(sess.Model, ts, fixPos)
	}
	if len(fingerprint) > 0 && wifiModel != "" {
		e.scoreStagedWiFi(wifiModel, fingerprint, fixPos)
	}
}

// scoreStagedIMU decodes the session's current feature window through
// the staged IMU generation and scores its end against the fix. The
// window (captured under the session lock) is self-contained plain
// data, so the decode runs asynchronously like any mirror.
func (e *Engine) scoreStagedIMU(model string, ts core.TrackerState, fixPos geo.Point) {
	st, ok := e.reg.Staged(model)
	if !ok || st.IMU == nil {
		return
	}
	segDim := st.IMU.SegmentDim()
	if segDim != ts.SegDim || len(ts.Anchors) == 0 {
		return
	}
	n := len(ts.Segments) / segDim
	if n == 0 || n > st.IMU.MaxLen() {
		return
	}
	if !e.acquireMirrorSlot(st) {
		return
	}
	// The windowed path decodes from the anchor before its oldest
	// segment — the same shape the active's estimate came from.
	path := imu.Path{Start: ts.Anchors[0], NumSegments: n, Features: ts.Segments}
	key := genKey(model, st.Generation)
	go func() {
		defer func() { <-e.mirrorSlots }()
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		preds, err := e.imuBatcher.Submit(ctx, key, []imu.Path{path})
		if err != nil || len(preds) == 0 {
			st.Stats.Drop()
			return
		}
		st.Stats.RecordScore(distM(preds[0].End.X, preds[0].End.Y, fixPos.X, fixPos.Y))
	}()
}

// scoreStagedWiFi localizes a fix's fingerprint through the staged WiFi
// generation and scores it against the fix the active produced. (The
// active WiFi generation is not scored here: the fix IS its prediction,
// so its gap is zero by construction — the comparator falls back to
// mirror divergence for WiFi deployments.)
func (e *Engine) scoreStagedWiFi(model string, fingerprint []float64, fixPos geo.Point) {
	st, ok := e.reg.Staged(model)
	if !ok || st.WiFi == nil || st.WiFi.InputDim() != len(fingerprint) {
		return
	}
	if !e.acquireMirrorSlot(st) {
		return
	}
	key := genKey(model, st.Generation)
	go func() {
		defer func() { <-e.mirrorSlots }()
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		preds, err := e.wifiBatcher.Submit(ctx, key, [][]float64{fingerprint})
		if err != nil || len(preds) == 0 {
			st.Stats.Drop()
			return
		}
		st.Stats.RecordScore(distM(preds[0].Pos.X, preds[0].Pos.Y, fixPos.X, fixPos.Y))
	}()
}

// distM is the planar distance between two points in meters.
func distM(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	return math.Sqrt(dx*dx + dy*dy)
}
