package retrain

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/serve"
	"noble/internal/store"
)

// publishTinyWiFiBundle trains a miniature synthetic WiFi bundle into
// dir under the given name and returns its seed survey.
func publishTinyWiFiBundle(t *testing.T, dir, name string) *dataset.WiFi {
	t.Helper()
	dcfg := dataset.SmallIPINConfig()
	dcfg.NumWAPs = 16
	dcfg.RefSpacing = 8
	dcfg.SamplesPerRef = 3
	dcfg.TestSamplesPerRef = 1
	dcfg.Seed = 11
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = []int{16}
	cfg.Epochs = 2
	ds := dataset.SynthIPIN(dcfg)
	model := core.TrainWiFi(ds, cfg)
	man := serve.Manifest{Kind: serve.KindWiFi, WiFi: &serve.WiFiBundle{Plan: "ipin", Dataset: dcfg, Config: cfg}}
	if err := serve.WriteBundle(dir, name, man, func(f *os.File) error { return model.Save(f) }); err != nil {
		t.Fatal(err)
	}
	return ds
}

// corpusFromSurvey fills a corpus with fixes whose fingerprints are
// real survey test vectors labeled by their true positions — the
// harvested shape, minus the WAL.
func corpusFromSurvey(t *testing.T, dir, model string, ds *dataset.WiFi, n int) *Corpus {
	t.Helper()
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var fixes []store.ReAnchorFix
	for i := 0; i < n && i < len(ds.Test); i++ {
		s := ds.Test[i]
		fixes = append(fixes, store.ReAnchorFix{
			Session: "dev", Gen: 1, Seq: int64(i + 1), Time: int64(i + 1),
			WiFiModel: model, Fingerprint: s.Features, X: s.Pos.X, Y: s.Pos.Y,
		})
	}
	if added := c.Add(fixes); added != len(fixes) {
		t.Fatalf("added %d of %d fixes", added, len(fixes))
	}
	return c
}

// TestRetrainLandsInShadow is the loop's safety property: a retrained
// bundle republished over a served name must stage as SHADOW on the
// next reload — the active generation keeps serving, untouched, until
// the lifecycle controller promotes the retrain on live evidence.
func TestRetrainLandsInShadow(t *testing.T) {
	modelsDir := t.TempDir()
	ds := publishTinyWiFiBundle(t, modelsDir, "wifi-test")
	retrainLandsInShadow(t, modelsDir, ds)
}

// TestRetrainIgnoresImmediateSidecar: a bundle whose lifecycle.json says
// "immediate" swaps its own publishes straight to active, but a retrain
// of it (here with no RunOptions.Lifecycle, as noble-serve's in-process
// manager runs it) must still land in shadow. The republished sidecar
// keeps the bundle's target and policy and drops the immediate flag.
func TestRetrainIgnoresImmediateSidecar(t *testing.T) {
	modelsDir := t.TempDir()
	ds := publishTinyWiFiBundle(t, modelsDir, "wifi-test")
	bundle := filepath.Join(modelsDir, "wifi-test")
	sidecar := `{"target": "canary", "immediate": true, "policy": {"min_shadow_requests": 40, "max_error_delta_m": 0.5}}`
	if err := os.WriteFile(filepath.Join(bundle, "lifecycle.json"), []byte(sidecar), 0o644); err != nil {
		t.Fatal(err)
	}
	retrainLandsInShadow(t, modelsDir, ds)
	spec, err := serve.ReadLifecycleSpec(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Immediate || spec.Target != "canary" || spec.Policy.MinShadowRequests != 40 || spec.Policy.MaxErrorDeltaM != 0.5 {
		t.Fatalf("republished sidecar %+v, want the bundle's target and policy without immediate", spec)
	}
}

// retrainLandsInShadow loads the bundle "wifi-test" in modelsDir as
// generation 1, retrains it on ten corpus fixes without a Lifecycle
// override, reloads, and checks the active generation is untouched and
// the retrain waits in shadow as generation 2.
func retrainLandsInShadow(t *testing.T, modelsDir string, ds *dataset.WiFi) {
	t.Helper()
	reg := serve.NewRegistry(modelsDir, t.Logf)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("initial reload: loaded=%d err=%v", loaded, err)
	}
	active, ok := reg.Get("wifi-test")
	if !ok || active.Stage != serve.StageActive || active.Generation != 1 {
		t.Fatalf("seed bundle not active: %+v", active)
	}

	c := corpusFromSurvey(t, filepath.Join(t.TempDir(), "corpus"), "wifi-test", ds, 10)
	res, err := Run(RunOptions{
		ModelsDir: modelsDir,
		Model:     "wifi-test",
		Corpus:    c,
		MinFixes:  1,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SeedSamples != len(ds.Train) || res.UsedFixes != 10 || res.Int8 {
		t.Fatalf("result %+v, want %d seed samples, 10 used fixes, fp64", res, len(ds.Train))
	}

	// Bump mtimes past filesystem granularity so the republish is a
	// distinct generation stamp even on coarse-timestamp filesystems.
	future := time.Now().Add(2 * time.Second)
	for _, f := range []string{"manifest.json", "weights.gob"} {
		if err := os.Chtimes(filepath.Join(modelsDir, "wifi-test", f), future, future); err != nil {
			t.Fatal(err)
		}
	}
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("reload after retrain: loaded=%d err=%v", loaded, err)
	}

	// Active is byte-for-byte the pre-retrain generation; the retrain
	// waits in shadow.
	nowActive, _ := reg.Get("wifi-test")
	if nowActive.Generation != 1 || nowActive.Stage != serve.StageActive || nowActive.WiFi != active.WiFi {
		t.Fatalf("active changed under a retrain publish: gen=%d stage=%s", nowActive.Generation, nowActive.Stage)
	}
	staged, ok := reg.Staged("wifi-test")
	if !ok || staged.Stage != serve.StageShadow || staged.Generation != 2 {
		t.Fatalf("retrain not staged as shadow: ok=%v %+v", ok, staged)
	}
	if staged.WiFi == active.WiFi {
		t.Fatal("shadow generation must be a fresh model instance")
	}
}

// TestRunRefusesTooFewFixes: a near-empty corpus must refuse rather
// than republish a model indistinguishable from the seed.
func TestRunRefusesTooFewFixes(t *testing.T) {
	modelsDir := t.TempDir()
	ds := publishTinyWiFiBundle(t, modelsDir, "wifi-test")
	c := corpusFromSurvey(t, filepath.Join(t.TempDir(), "corpus"), "wifi-test", ds, 2)
	_, err := Run(RunOptions{ModelsDir: modelsDir, Model: "wifi-test", Corpus: c, MinFixes: 5, Logf: t.Logf})
	if !errors.Is(err, ErrTooFewFixes) {
		t.Fatalf("err = %v, want ErrTooFewFixes", err)
	}
}

// TestRunRefusesNonWiFiBundles: only synthetic WiFi bundles carry a
// reproducible training recipe.
func TestRunRefusesNonWiFiBundles(t *testing.T) {
	modelsDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(modelsDir, "imu-x"), 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := []byte(`{"kind":"imu"}`)
	if err := os.WriteFile(filepath.Join(modelsDir, "imu-x", "manifest.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCorpus(filepath.Join(t.TempDir(), "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(RunOptions{ModelsDir: modelsDir, Model: "imu-x", Corpus: c}); err == nil {
		t.Fatal("retraining an IMU bundle must fail")
	}
}
