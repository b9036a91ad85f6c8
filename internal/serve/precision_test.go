package serve

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noble/internal/core"
	"noble/internal/dataset"
)

// int8Spec is a small quantizable Wi-Fi spec (every layer at or above
// qlinear's eligibility floor) that trains in well under a second.
func int8Spec() (dataset.WiFiConfig, core.WiFiConfig) {
	dcfg := dataset.SmallIPINConfig()
	dcfg.NumWAPs = 24
	dcfg.RefSpacing = 4
	dcfg.SamplesPerRef = 4
	dcfg.TestSamplesPerRef = 1
	dcfg.Seed = 11
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = []int{32, 32}
	cfg.Epochs = 10
	cfg.TauFine = 1
	cfg.TauCoarse = 8
	return dcfg, cfg
}

// publishInt8Bundle trains the spec, runs the train-time gate, and
// publishes an int8 bundle under dir/name, returning the in-memory
// quantized model for comparison. Budget is wide: a barely-trained toy
// model's delta is noise, and the gate's fail path is tested separately
// with corrupted scales.
func publishInt8Bundle(t *testing.T, dir, name string) *core.WiFiModel {
	t.Helper()
	dcfg, cfg := int8Spec()
	ds := dataset.SynthIPIN(dcfg)
	model := core.TrainWiFi(ds, cfg)
	cal, err := QuantizeWiFiModel(model, ds, QuantizeOptions{BudgetPct: MaxErrorBudgetPct})
	if err != nil {
		t.Fatalf("train-time gate: %v", err)
	}
	if model.Precision() != core.PrecisionInt8 {
		t.Fatalf("precision %q after QuantizeWiFiModel", model.Precision())
	}
	err = WriteBundle(dir, name, Manifest{
		Kind:      KindWiFi,
		WiFi:      &WiFiBundle{Plan: "ipin", Dataset: dcfg, Config: cfg},
		Precision: &PrecisionBlock{Mode: core.PrecisionInt8, ErrorBudgetPct: MaxErrorBudgetPct},
	}, func(f *os.File) error { return model.Save(f) },
		CalibrationExtra("calibration.json", cal))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestInt8BundleRoundTrip: publishing an int8 bundle and loading it
// back reproduces the quantized predictions bit-for-bit — the
// calibration replay path is exact, not approximately equal.
func TestInt8BundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model := publishInt8Bundle(t, dir, "wifi-q")

	loaded, err := LoadBundle(filepath.Join(dir, "wifi-q"))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.WiFi == nil || loaded.WiFi.Precision() != core.PrecisionInt8 {
		t.Fatalf("loaded bundle is not int8: %+v", loaded.Info())
	}
	if got := loaded.Info().Precision; got != "int8" {
		t.Fatalf("Info().Precision = %q", got)
	}
	dcfg, _ := int8Spec()
	ds := dataset.SynthIPIN(dcfg)
	for i, s := range ds.Test[:8] {
		if got, want := loaded.WiFi.Predict(s.Features), model.Predict(s.Features); got != want {
			t.Fatalf("sample %d: loaded %+v != published %+v", i, got, want)
		}
	}
}

// corruptCalibration rewrites a bundle's act_scales multiplied by the
// factor — the hand-corruption the load-time gate exists to catch.
func corruptCalibration(t *testing.T, bundleDir string, factor float32) {
	t.Helper()
	path := filepath.Join(bundleDir, "calibration.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cal CalibrationFile
	if err := json.Unmarshal(raw, &cal); err != nil {
		t.Fatal(err)
	}
	for i := range cal.ActScales {
		cal.ActScales[i] *= factor
	}
	out, err := json.MarshalIndent(&cal, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInt8BundleCorruptedCalibrationRefused: a bundle whose scales were
// corrupted after publish must fail the load-time gate recheck.
func TestInt8BundleCorruptedCalibrationRefused(t *testing.T) {
	dir := t.TempDir()
	publishInt8Bundle(t, dir, "wifi-q")
	bundleDir := filepath.Join(dir, "wifi-q")
	corruptCalibration(t, bundleDir, 1e6)

	_, err := LoadBundle(bundleDir)
	if err == nil {
		t.Fatal("corrupted calibration loaded without error")
	}
	if !strings.Contains(err.Error(), "gate") {
		t.Fatalf("want int8-gate error, got: %v", err)
	}

	// Structurally invalid scales are refused before any evaluation.
	corruptCalibration(t, bundleDir, -1)
	if _, err := LoadBundle(bundleDir); err == nil {
		t.Fatal("negative scales loaded without error")
	}
}

// TestRegistryStampCoversCalibration pins the stamp fix: a change to a
// payload file other than manifest/weights (here the calibration
// artifact) must register as a bundle change — both for hot reload and
// for retrying a bundle out of failed-load backoff.
func TestRegistryStampCoversCalibration(t *testing.T) {
	dir := t.TempDir()
	publishInt8Bundle(t, dir, "wifi-q")
	bundleDir := filepath.Join(dir, "wifi-q")
	goodCal, err := os.ReadFile(filepath.Join(bundleDir, "calibration.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Republishes here pin the pre-lifecycle direct-swap path.
	writeImmediateLifecycle(t, bundleDir)

	reg := NewRegistry(dir, t.Logf)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	m, ok := reg.Get("wifi-q")
	if !ok || m.Generation != 1 {
		t.Fatalf("initial load: ok=%v gen=%d", ok, m.Generation)
	}

	// Corrupt ONLY the calibration file: the stamp must change, the
	// reload must notice, and the broken generation must be refused
	// (previous generation keeps serving).
	corruptCalibration(t, bundleDir, 1e6)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if m, _ := reg.Get("wifi-q"); m.Generation != 1 {
		t.Fatalf("corrupted bundle replaced the serving generation (gen=%d)", m.Generation)
	}
	if failed := reg.FailedBundles(); len(failed) != 1 || failed[0] != "wifi-q" {
		t.Fatalf("FailedBundles = %v, want [wifi-q]", failed)
	}

	// Fix ONLY the calibration file: the new stamp must clear the
	// failed-load backoff and load generation 2.
	if err := os.WriteFile(filepath.Join(bundleDir, "calibration.json"), goodCal, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	m, _ = reg.Get("wifi-q")
	if m.Generation != 2 || m.WiFi.Precision() != core.PrecisionInt8 {
		t.Fatalf("after fix: gen=%d precision=%q, want gen=2 int8", m.Generation, m.WiFi.Precision())
	}
	if failed := reg.FailedBundles(); len(failed) != 0 {
		t.Fatalf("FailedBundles = %v after recovery", failed)
	}
}

// TestReloadPrecisionFlipUnderTraffic hot-swaps a bundle from fp64 to
// int8 while concurrent localize traffic runs against it. Under -race
// this is the torn-read check for the registry swap and the model's
// quantized-path dispatch; in any mode every response must stay valid
// across the generation flip.
func TestReloadPrecisionFlipUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	dcfg, cfg := int8Spec()
	ds := dataset.SynthIPIN(dcfg)
	model := core.TrainWiFi(ds, cfg)
	spec := &WiFiBundle{Plan: "ipin", Dataset: dcfg, Config: cfg}
	if err := WriteBundle(dir, "flip", Manifest{Kind: KindWiFi, WiFi: spec},
		func(f *os.File) error { return model.Save(f) }); err != nil {
		t.Fatal(err)
	}
	// The mid-traffic republish below pins the direct-swap path; the
	// shadow pipeline has its own tests.
	writeImmediateLifecycle(t, filepath.Join(dir, "flip"))

	reg := NewRegistry(dir, t.Logf)
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, BatchWindow: 500 * time.Microsecond, MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(LocalizeRequest{
		Model:        "flip",
		Fingerprints: [][]float64{ds.Test[0].Features, ds.Test[1].Features},
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop     atomic.Bool
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	fail := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := ts.Client().Post(ts.URL+"/v1/localize", "application/json", strings.NewReader(string(body)))
				if err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
				var out LocalizeResponse
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != 200 || len(out.Results) != 2 {
					select {
					case fail <- "bad response during flip":
					default:
					}
					return
				}
				requests.Add(1)
			}
		}()
	}

	// Mid-traffic: quantize a fresh copy of the same weights and
	// republish the bundle as int8, then hot-reload.
	base, err := restoreBundle(filepath.Join(dir, "flip"))
	if err != nil {
		t.Fatal(err)
	}
	qmodel, man, qds := base.model.WiFi, base.man, base.wifiDS
	cal, err := QuantizeWiFiModel(qmodel, qds, QuantizeOptions{BudgetPct: MaxErrorBudgetPct})
	if err != nil {
		t.Fatal(err)
	}
	err = WriteBundle(dir, "flip", Manifest{
		Kind: KindWiFi, WiFi: man.WiFi,
		Precision: &PrecisionBlock{Mode: core.PrecisionInt8, ErrorBudgetPct: MaxErrorBudgetPct},
	}, func(f *os.File) error { return qmodel.Save(f) },
		CalibrationExtra("calibration.json", cal))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get("flip")
	if m.Generation != 2 || m.WiFi.Precision() != core.PrecisionInt8 {
		t.Fatalf("after flip: gen=%d precision=%q", m.Generation, m.WiFi.Precision())
	}

	// Let post-flip traffic run against the int8 generation.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatalf("request failed during precision flip: %s", msg)
	default:
	}
	if requests.Load() == 0 {
		t.Fatal("no successful requests recorded")
	}
}
