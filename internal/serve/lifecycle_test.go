package serve

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"noble/internal/core"
	"noble/internal/geo"
	"noble/internal/store"
)

// Lifecycle tests: staged placement racing hot reload, stage recovery
// across a journal restart, and the two live evaluation signals
// (mirrored traffic, re-anchor scoring) that feed promotion decisions.

// publishWiFiGen writes (or republishes) the fixture-shaped WiFi bundle
// under name with the given model, bumping mtimes mtimeSkew into the
// future so consecutive publishes within filesystem timestamp
// granularity still re-stamp.
func publishWiFiGen(t *testing.T, dir, name string, model *core.WiFiModel, cfg core.WiFiConfig, mtimeSkew time.Duration) {
	t.Helper()
	man := Manifest{Kind: KindWiFi, WiFi: &WiFiBundle{Plan: "ipin", Dataset: tinyWiFiDatasetCfg(), Config: cfg}}
	if err := WriteBundle(dir, name, man, func(f *os.File) error { return model.Save(f) }); err != nil {
		t.Fatal(err)
	}
	stamp := time.Now().Add(mtimeSkew)
	for _, f := range []string{"manifest.json", "weights.gob"} {
		if err := os.Chtimes(filepath.Join(dir, name, f), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
}

// retrainedWiFi trains a second fixture model with a different seed:
// same shapes, different weights — a new generation worth staging.
func retrainedWiFi(t *testing.T) (*core.WiFiModel, core.WiFiConfig) {
	t.Helper()
	fixtures(t)
	cfg2 := wifiCfg
	cfg2.Seed = 99
	return core.TrainWiFi(wifiDS, cfg2), cfg2
}

// TestPromotionRacingReload races the promotion path against hot
// reload: with Reload polling concurrently, a staged generation is
// promoted and a later one rolled back, and the retired generation must
// never be resurrected by a poll that raced the transition — the
// registry remembers rolled-back bundle bytes until they change on
// disk. Run under -race this also checks the locking of the two paths.
func TestPromotionRacingReload(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	publishWiFiGen(t, dir, "m", wifiModel, wifiCfg, 0)

	reg := NewRegistry(dir, t.Logf)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}

	model2, cfg2 := retrainedWiFi(t)
	publishWiFiGen(t, dir, "m", model2, cfg2, 2*time.Second)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("shadow publish: loaded=%d err=%v", loaded, err)
	}

	// Background reload poller, as reg.Watch would run it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, _, err := reg.Reload(); err != nil {
					t.Errorf("racing reload: %v", err)
					return
				}
			}
		}
	}()

	// Promote gen2 shadow → canary → active while reloads race.
	if err := reg.Transition("m", StageCanary, "race test"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Transition("m", StageActive, "race test"); err != nil {
		t.Fatal(err)
	}

	// Publish gen3 (the original weights again, new stamp), let the
	// poller stage it, then roll it back mid-poll.
	// A poll that lands between the publish's renames and mtime bumps
	// stages an intermediate generation, which the next poll supersedes:
	// wait for the bundle as finally written.
	publishWiFiGen(t, dir, "m", wifiModel, wifiCfg, 4*time.Second)
	stamp, _ := stampBundle(filepath.Join(dir, "m"))
	deadline := time.After(5 * time.Second)
	for {
		if st, ok := reg.Staged("m"); ok && st.BundleID == bundleIDFor(stamp) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("poller never staged gen3")
		case <-time.After(time.Millisecond):
		}
	}
	if err := reg.RollbackStaged("m", "race test"); err != nil {
		t.Fatal(err)
	}

	// Keep polling after the rollback: the retired bundle's unchanged
	// bytes must not come back as a fresh staged generation.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if st, ok := reg.Staged("m"); ok {
		t.Fatalf("rolled-back generation resurrected by reload: gen=%d stage=%s", st.Generation, st.Stage)
	}
	active, ok := reg.Get("m")
	if !ok || active.Generation != 2 || active.Stage != StageActive {
		t.Fatalf("active after race: ok=%v gen=%d stage=%s, want gen=2 active", ok, active.Generation, active.Stage)
	}
}

// TestLifecycleStageSurvivesRestart journals transitions through the
// engine hook, "crashes" (journal close + fresh process state), and
// asserts recovery resumes each generation at its recorded stage: a
// canary comes back as canary with the archived active still serving,
// and a rolled-back generation stays retired instead of re-entering
// shadow.
func TestLifecycleStageSurvivesRestart(t *testing.T) {
	fixtures(t)
	models := t.TempDir()
	state := t.TempDir()
	publishWiFiGen(t, models, "m", wifiModel, wifiCfg, 0)

	boot := func() (*Registry, *Engine, *store.Journal) {
		t.Helper()
		j, err := store.Open(store.Config{Dir: state, Fsync: store.FsyncNever, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := j.Recover()
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry(models, t.Logf)
		reg.SetRecoveredStages(RecoveredStages(rec))
		e := NewEngine(Config{Registry: reg, Journal: j})
		if _, _, err := reg.Reload(); err != nil {
			t.Fatal(err)
		}
		return reg, e, j
	}

	reg, _, j := boot()
	active1, ok := reg.Get("m")
	if !ok || active1.Stage != StageActive {
		t.Fatalf("boot active: ok=%v %+v", ok, active1)
	}

	// Stage gen2 and walk it to canary; both transitions are journaled
	// through the engine's OnTransition hook.
	model2, cfg2 := retrainedWiFi(t)
	publishWiFiGen(t, models, "m", model2, cfg2, 2*time.Second)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("shadow publish: loaded=%d err=%v", loaded, err)
	}
	if err := reg.Transition("m", StageCanary, "test window complete"); err != nil {
		t.Fatal(err)
	}
	staged, _ := reg.Staged("m")
	canaryID := staged.BundleID
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: the canary must resume as canary — not re-enter shadow,
	// not swap to active — and the archived gen1 payload must serve.
	reg2, _, j2 := boot()
	active, ok := reg2.Get("m")
	if !ok || active.Stage != StageActive {
		t.Fatalf("restart active: ok=%v %+v", ok, active)
	}
	smp := wifiDS.Test[0]
	if got, want := active.WiFi.Predict(smp.Features), wifiModel.Predict(smp.Features); got != want {
		t.Fatalf("restart must serve the archived gen1 weights: got %+v want %+v", got, want)
	}
	st2, ok := reg2.Staged("m")
	if !ok || st2.Stage != StageCanary || st2.BundleID != canaryID {
		t.Fatalf("canary after restart: ok=%v %+v, want canary bundle %s", ok, st2, canaryID)
	}
	if got, want := st2.WiFi.Predict(smp.Features), model2.Predict(smp.Features); got != want {
		t.Fatalf("recovered canary must carry the gen2 weights")
	}

	// Roll the canary back, crash again: the bundle is still on disk,
	// but recovery must keep it retired.
	if err := reg2.RollbackStaged("m", "regressed in test"); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	reg3, _, j3 := boot()
	defer j3.Close()
	if st, ok := reg3.Staged("m"); ok {
		t.Fatalf("rolled-back generation resurrected after restart: %+v", st)
	}
	if active, ok := reg3.Get("m"); !ok || active.Stage != StageActive {
		t.Fatalf("active after rollback restart: ok=%v %+v", ok, active)
	}
}

// waitForSamples polls a generation's stats until the async mirror /
// scoring goroutines have recorded at least want samples.
func waitForSamples(t *testing.T, m *Model, want int64) GenStatsSnapshot {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		snap := m.Stats.Snapshot()
		if snap.Samples() >= want {
			return snap
		}
		select {
		case <-deadline:
			t.Fatalf("stats stuck at %d samples, want ≥ %d: %+v", snap.Samples(), want, snap)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestShadowMirrorsWithoutServing drives localize traffic with a
// different-weights shadow staged at full mirror rate: every response
// must come from the active generation (the shadow is invisible to
// users), while the shadow accumulates mirrored rows and a non-zero
// divergence against the active's predictions.
func TestShadowMirrorsWithoutServing(t *testing.T) {
	fixtures(t)
	model2, _ := retrainedWiFi(t)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	if err := reg.AddStaged(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: model2}, StageShadow); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Registry: reg, MirrorRate: 1.0})

	ctx := context.Background()
	var diverged bool
	for i := 0; i < 32; i++ {
		smp := wifiDS.Test[i%len(wifiDS.Test)]
		preds, err := e.Localize(ctx, LocalizeQuery{Model: "wifi-test", Fingerprints: [][]float64{smp.Features}})
		if err != nil {
			t.Fatal(err)
		}
		want := wifiModel.Predict(smp.Features)
		if preds[0].Pos != want.Pos || preds[0].Class != want.Class {
			t.Fatalf("request %d served from the wrong generation: got %+v want %+v", i, preds[0], want)
		}
		if shadow := model2.Predict(smp.Features); shadow.Pos != want.Pos {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("fixture models agree on every test sample; divergence assertion is vacuous")
	}

	staged, _ := reg.Staged("wifi-test")
	snap := waitForSamples(t, staged, 32)
	if snap.Mirrored != 32 {
		t.Fatalf("mirrored rows %d, want 32 at mirror rate 1.0", snap.Mirrored)
	}
	if snap.MeanDivergenceM <= 0 {
		t.Fatalf("different weights must show positive mean divergence: %+v", snap)
	}
	// The active generation records pass latency but no divergence.
	if act, _ := reg.Get("wifi-test"); act.Stats.Snapshot().Mirrored != 0 {
		t.Fatal("active generation must not count mirrored rows")
	}
}

// TestReAnchorScoresEveryLiveStage drives a tracking session through
// WiFi fixes with a staged IMU generation present: each fix must score
// the ACTIVE tracker's drift and the staged generation's prediction of
// the same window against the fix — the free ground-truth signal — even
// with sampled mirroring disabled.
func TestReAnchorScoresEveryLiveStage(t *testing.T) {
	fixtures(t)
	cfgB := imuBundle.Config
	cfgB.Seed = 77
	imuModel2 := core.TrainIMU(imuDS, cfgB)

	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	if err := reg.AddStaged(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel2}, StageShadow); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Registry: reg}) // MirrorRate 0: scoring must still run

	ctx := context.Background()
	segDim := imuModel.SegmentDim()
	smp := wifiDS.Test[0]
	for r := 0; r < 6; r++ {
		q := SegmentQuery{Session: "dev", Features: make([]float64, segDim)}
		if r == 0 {
			q.Model = "imu-test"
			q.Start = &geo.Point{}
			q.Window = 2
		}
		if r > 0 && r%2 == 0 {
			q.WiFiModel = "wifi-test"
			q.Fingerprint = smp.Features
		}
		if _, err := e.AppendSegments(ctx, q); err != nil {
			t.Fatalf("append %d: %v", r, err)
		}
	}

	// Fixes at r=2 and r=4 each score active and staged; the session's
	// very first fix-less appends never score (no window yet on create).
	staged, _ := reg.Staged("imu-test")
	if snap := waitForSamples(t, staged, 2); snap.Scores < 2 {
		t.Fatalf("staged re-anchor scores %d, want ≥ 2", snap.Scores)
	}
	act, _ := reg.Get("imu-test")
	if snap := act.Stats.Snapshot(); snap.Scores < 2 {
		t.Fatalf("active re-anchor scores %d, want ≥ 2: %+v", snap.Scores, snap)
	}
}
