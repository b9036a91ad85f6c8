package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"noble/internal/core"
)

// Tests of the registry's disk half against a real bundle directory:
// the archive copy racing a republish, and a bundle directory that is
// momentarily incomplete.

// archivedPayload reads a name's .active archive: the bundle ID it
// claims and the model its files actually hold.
func archivedPayload(t *testing.T, dir, name string) (string, *core.WiFiModel) {
	t.Helper()
	archive := filepath.Join(dir, name, activeArchiveDir)
	raw, err := os.ReadFile(filepath.Join(archive, archiveIDFile))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadBundle(archive)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(raw)), m.WiFi
}

// samePredictions reports whether two models answer every fixture test
// sample identically.
func samePredictions(a, b *core.WiFiModel) bool {
	for _, smp := range wifiDS.Test {
		if a.Predict(smp.Features) != b.Predict(smp.Features) {
			return false
		}
	}
	return true
}

// TestArchiveRacingRepublish lands a republish between a promotion and
// its archive copy (which runs with the registry lock released). The
// archive is what crash recovery restores as "the active", so its
// bundle.id and its weights must always be the same generation: the
// copy of a directory that changed underneath it is refused and the
// previous archive stays.
func TestArchiveRacingRepublish(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	model2, cfg2 := retrainedWiFi(t)
	if samePredictions(wifiModel, model2) {
		t.Fatal("fixture generations agree everywhere; the weights assertions are vacuous")
	}
	weightsOf := map[string]*core.WiFiModel{} // bundle ID → the weights published under it
	publish := func(model *core.WiFiModel, cfg core.WiFiConfig, skew time.Duration) {
		t.Helper()
		publishWiFiGen(t, dir, "m", model, cfg, skew)
		stamp, ok := stampBundle(filepath.Join(dir, "m"))
		if !ok {
			t.Fatal("published bundle does not stamp")
		}
		weightsOf[bundleIDFor(stamp)] = model
	}
	checkArchive := func(when string, wantGen *core.WiFiModel) {
		t.Helper()
		id, archived := archivedPayload(t, dir, "m")
		published, ok := weightsOf[id]
		if !ok {
			t.Fatalf("%s: archive claims bundle %s, which was never published", when, id)
		}
		if !samePredictions(archived, published) {
			t.Fatalf("%s: bundle.id says %s but the archived weights are another generation's", when, id)
		}
		if !samePredictions(archived, wantGen) {
			t.Fatalf("%s: archive holds the wrong generation", when)
		}
	}

	publish(wifiModel, wifiCfg, 0)
	reg := NewRegistry(dir, t.Logf)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	checkArchive("after first load", wifiModel)

	publish(model2, cfg2, 2*time.Second)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("shadow publish: loaded=%d err=%v", loaded, err)
	}
	if err := reg.Transition("m", StageCanary, "test"); err != nil {
		t.Fatal(err)
	}

	// Generation 3 (the first weights again, new stamp) lands after the
	// swap and before the copy of generation 2's payload.
	realCopy := reg.copyPayload
	reg.copyPayload = func(src, dst, bundleID string) error {
		publish(wifiModel, wifiCfg, 4*time.Second)
		return realCopy(src, dst, bundleID)
	}
	if err := reg.Transition("m", StageActive, "test"); err != nil {
		t.Fatal(err)
	}
	reg.copyPayload = realCopy
	if active, _ := reg.Get("m"); active.Generation != 2 || !samePredictions(active.WiFi, model2) {
		t.Fatalf("promotion itself must not be affected: %+v", active)
	}
	checkArchive("after the raced promotion", wifiModel) // generation 1's archive, kept whole

	// The republish is an ordinary shadow; promoting it archives it,
	// replacing the older archive.
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("generation 3 publish: loaded=%d err=%v", loaded, err)
	}
	for _, to := range []Stage{StageCanary, StageActive} {
		if err := reg.Transition("m", to, "test"); err != nil {
			t.Fatal(err)
		}
	}
	id, _ := archivedPayload(t, dir, "m")
	if active, _ := reg.Get("m"); active.BundleID != id {
		t.Fatalf("archive holds bundle %s, active is %s", id, active.BundleID)
	}
	checkArchive("after an undisturbed promotion", wifiModel)
	if _, err := os.Stat(filepath.Join(dir, "m", activeArchiveDir+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("scratch archive directory left behind: %v", err)
	}
}

// TestIncompleteBundleKeepsItsDeployment: a served name whose directory
// is momentarily not a complete bundle keeps serving, and when its
// bytes come back changed they enter shadow like any republish — they
// must not be unloaded and re-admitted as a first load, straight to
// active.
func TestIncompleteBundleKeepsItsDeployment(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	publishWiFiGen(t, dir, "m", wifiModel, wifiCfg, 0)
	reg := NewRegistry(dir, t.Logf)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Registry: reg})

	weights := filepath.Join(dir, "m", "weights.gob")
	if err := os.Rename(weights, filepath.Join(dir, "weights.away")); err != nil {
		t.Fatal(err)
	}
	if loaded, removed, err := reg.Reload(); err != nil || loaded != 0 || removed != 0 {
		t.Fatalf("incomplete bundle: loaded=%d removed=%d err=%v", loaded, removed, err)
	}
	smp := wifiDS.Test[0]
	preds, err := e.Localize(context.Background(), LocalizeQuery{Model: "m", Fingerprints: [][]float64{smp.Features}})
	if err != nil {
		t.Fatalf("a served model stopped answering while its directory was incomplete: %v", err)
	}
	if want := wifiModel.Predict(smp.Features); preds[0].Pos != want.Pos {
		t.Fatalf("answer changed: %+v want %+v", preds[0], want)
	}

	model2, cfg2 := retrainedWiFi(t)
	publishWiFiGen(t, dir, "m", model2, cfg2, 2*time.Second)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("republish: loaded=%d err=%v", loaded, err)
	}
	if active, ok := reg.Get("m"); !ok || active.Generation != 1 || active.Stage != StageActive {
		t.Fatalf("active after the republish: ok=%v %+v, want generation 1 still active", ok, active)
	}
	if staged, ok := reg.Staged("m"); !ok || staged.Generation != 2 || staged.Stage != StageShadow {
		t.Fatalf("the returning bytes must enter shadow: ok=%v %+v", ok, staged)
	}
}

// TestBrokenFirstPublishIsOnlyAFailedRecord: a name whose only publish
// never loaded is reported broken and nothing else — no listing shows
// it — and its record goes when its directory does.
func TestBrokenFirstPublishIsOnlyAFailedRecord(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	publishWiFiGen(t, dir, "m", wifiModel, wifiCfg, 0)
	if err := os.WriteFile(filepath.Join(dir, "m", "weights.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, t.Logf)
	if loaded, removed, err := reg.Reload(); err != nil || loaded != 0 || removed != 0 {
		t.Fatalf("broken first publish: loaded=%d removed=%d err=%v", loaded, removed, err)
	}
	if failed := reg.FailedBundles(); len(failed) != 1 || failed[0] != "m" {
		t.Fatalf("FailedBundles = %v, want [m]", failed)
	}
	if _, ok := reg.Get("m"); ok || reg.Len() != 0 || len(reg.ListLifecycle()) != 0 || len(reg.Deployments()) != 0 {
		t.Fatal("a failed load must not appear as a deployment")
	}
	if err := os.RemoveAll(filepath.Join(dir, "m")); err != nil {
		t.Fatal(err)
	}
	if _, removed, err := reg.Reload(); err != nil || removed != 0 {
		t.Fatalf("removing a never-loaded bundle: removed=%d err=%v", removed, err)
	}
	if failed := reg.FailedBundles(); len(failed) != 0 {
		t.Fatalf("FailedBundles = %v after the directory went", failed)
	}
}
