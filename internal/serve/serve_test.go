package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/mat"
	"noble/internal/quantize"
)

// Tiny fixtures, trained once per test binary.

var (
	fixtureOnce sync.Once
	wifiDS      *dataset.WiFi
	wifiCfg     core.WiFiConfig
	wifiModel   *core.WiFiModel
	imuBundle   *IMUBundle
	imuDS       *imu.PathDataset
	imuModel    *core.IMUModel
)

func wifiSpec() (*dataset.WiFi, core.WiFiConfig) {
	dcfg := dataset.SmallIPINConfig()
	dcfg.NumWAPs = 16
	dcfg.RefSpacing = 8
	dcfg.SamplesPerRef = 3
	dcfg.TestSamplesPerRef = 1
	dcfg.Seed = 11
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = []int{16}
	cfg.Epochs = 3
	cfg.TauFine = 1
	cfg.TauCoarse = 8
	return dataset.SynthIPIN(dcfg), cfg
}

func fixtures(t *testing.T) {
	t.Helper()
	fixtureOnce.Do(func() {
		wifiDS, wifiCfg = wifiSpec()
		wifiModel = core.TrainWiFi(wifiDS, wifiCfg)

		sensors := imu.DefaultConfig()
		sensors.ReadingsPerSegment = 32
		sensors.TotalSegments = 40
		imuBundle = &IMUBundle{
			Spacing: 12,
			Sensors: sensors,
			Seed:    5,
			Paths: imu.PathConfig{
				NumPaths: 120, MaxLen: 4, Frames: 3,
				TrainFrac: 0.7, ValFrac: 0.1, Seed: 7,
			},
		}
		cfg := core.DefaultIMUConfig()
		cfg.ProjDim = 8
		cfg.Hidden = []int{16, 16}
		cfg.Tau = 2
		cfg.Epochs = 3
		imuBundle.Config = cfg
		imuDS = imuBundle.BuildIMUDataset()
		imuModel = core.TrainIMU(imuDS, cfg)
	})
}

// newTestServer wires a server over the shared fixture models.
func newTestServer(t *testing.T, window time.Duration) *Server {
	t.Helper()
	fixtures(t)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	return New(Config{Registry: reg, BatchWindow: window, MaxBatch: 64})
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestLocalizeBadJSON(t *testing.T) {
	s := newTestServer(t, 0)
	w := postJSON(t, s.Handler(), "/v2/localize", "{not json")
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeBadBody || e.Message == "" || e.RequestID == "" {
		t.Fatalf("error %+v, want bad_body with a message and request ID", e)
	}
}

func TestLocalizeUnknownModel(t *testing.T) {
	s := newTestServer(t, 0)
	w := postJSON(t, s.Handler(), "/v2/localize", `{"model":"nope","fingerprints":[[0.1]]}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404; body %s", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeModelNotFound {
		t.Fatalf("code %q, want model_not_found", e.Code)
	}
}

func TestLocalizeWrongKindAndBadDims(t *testing.T) {
	s := newTestServer(t, 0)
	for _, tc := range []struct {
		name, body string
		code       Code
	}{
		{"wrong kind", `{"model":"imu-test","fingerprints":[[0.1]]}`, CodeWrongModelKind},
		{"bad dims", `{"model":"wifi-test","fingerprints":[[0.1,0.2]]}`, CodeBadFingerprint},
		{"empty", `{"model":"wifi-test","fingerprints":[]}`, CodeBadFingerprint},
	} {
		w := postJSON(t, s.Handler(), "/v2/localize", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body %s", tc.name, w.Code, w.Body)
		}
		if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}
}

func TestLocalizeHappyPath(t *testing.T) {
	s := newTestServer(t, 0)
	samples := wifiDS.Test[:4]
	req := LocalizeRequest{Model: "wifi-test"}
	for _, smp := range samples {
		req.Fingerprints = append(req.Fingerprints, smp.Features)
	}
	raw, _ := json.Marshal(req)
	w := postJSON(t, s.Handler(), "/v2/localize", string(raw))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d; body %s", w.Code, w.Body)
	}
	var resp LocalizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(samples) {
		t.Fatalf("%d results for %d fingerprints", len(resp.Results), len(samples))
	}
	for i, smp := range samples {
		want := wifiModel.Predict(smp.Features)
		got := resp.Results[i]
		if got.X != want.Pos.X || got.Y != want.Pos.Y ||
			got.Class != want.Class || got.Building != want.Building || got.Floor != want.Floor {
			t.Fatalf("result %d: got %+v, model predicts %+v", i, got, want)
		}
	}
}

func TestTrackHappyPath(t *testing.T) {
	s := newTestServer(t, 0)
	paths := imuDS.Test[:3]
	req := TrackRequest{Model: "imu-test"}
	for _, p := range paths {
		req.Paths = append(req.Paths, TrackPath{
			Start:    XY{X: p.Start.X, Y: p.Start.Y},
			Features: p.Features,
		})
	}
	raw, _ := json.Marshal(req)
	w := postJSON(t, s.Handler(), "/v2/track", string(raw))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d; body %s", w.Code, w.Body)
	}
	var resp TrackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := imuModel.PredictPaths(paths)
	for i := range want {
		got := resp.Results[i]
		if got.End.X != want[i].End.X || got.End.Y != want[i].End.Y || got.Class != want[i].Class {
			t.Fatalf("path %d: got %+v, model predicts %+v", i, got, want[i])
		}
	}
}

func TestTrackRejectsBadFeatureLength(t *testing.T) {
	s := newTestServer(t, 0)
	w := postJSON(t, s.Handler(), "/v2/track",
		`{"model":"imu-test","paths":[{"start":{"x":0,"y":0},"features":[1,2,3]}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeBadPath {
		t.Fatalf("code %q, want bad_path", e.Code)
	}
}

func TestModelsHealthzMetrics(t *testing.T) {
	s := newTestServer(t, 0)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v2/models", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("models: status %d", w.Code)
	}
	var listing struct {
		Models []ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 2 {
		t.Fatalf("%d models listed, want 2", len(listing.Models))
	}
	byName := map[string]ModelInfo{}
	for _, m := range listing.Models {
		byName[m.Name] = m
	}
	if byName["wifi-test"].InputDim != wifiModel.InputDim() {
		t.Fatalf("wifi input_dim %d, want %d", byName["wifi-test"].InputDim, wifiModel.InputDim())
	}
	if byName["imu-test"].SegmentDim != imuModel.SegmentDim() {
		t.Fatalf("imu segment_dim %d, want %d", byName["imu-test"].SegmentDim, imuModel.SegmentDim())
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}

	// One request so the counters are non-empty, then scrape.
	postJSON(t, s.Handler(), "/v2/localize", `{"model":"nope","fingerprints":[[0.1]]}`)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`noble_requests_total{endpoint="v2_localize",code="404"} 1`,
		"noble_request_latency_seconds",
		"noble_batch_size_count",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestBatchedLocalizeMatchesUnbatched(t *testing.T) {
	// Concurrent single-fingerprint requests through the micro-batcher
	// must coalesce into one forward pass while answering each device
	// exactly what it would have gotten alone. The gate holds one pass
	// open so the n requests meet in the queue whatever the scheduler does.
	// The sizes straddle the packed weight layout's threshold (passes of
	// mat.PackedMinRows rows read it, and the first such pass builds it)
	// and its 8-row blocks, and passes core splits into row chunks across
	// cores (17 and 48 leave a short last chunk and fill three); the lone
	// Predict each answer is compared with always reads the row-major
	// weights on one core.
	for _, n := range []int{4, 5, 8, 9, 16, 17, 31, 32, 33, 48} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { batchedLocalizeMatchesUnbatched(t, n) })
	}
}

func batchedLocalizeMatchesUnbatched(t *testing.T, n int) {
	s := newTestServer(t, 5*time.Millisecond)
	g := gatePasses(s.engine.wifiBatcher)
	samples := wifiDS.Test
	sample := func(i int) []float64 { return samples[i%len(samples)].Features }
	var wg sync.WaitGroup
	results := make([]Position, n)
	codes := make([]int, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(LocalizeRequest{
				Model:        "wifi-test",
				Fingerprints: [][]float64{sample(i)},
			})
			<-start
			w := postJSON(t, s.Handler(), "/v2/localize", string(raw))
			codes[i] = w.Code
			var resp LocalizeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil && len(resp.Results) == 1 {
				results[i] = resp.Results[0]
			}
		}(i)
	}
	holder, _ := json.Marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{sample(0)}})
	release := holdPass(t, g, func() int { return postJSON(t, s.Handler(), "/v2/localize", string(holder)).Code })
	close(start)
	rideOnePass(t, g, s.engine.wifiBatcher, "wifi-test", n, release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		want := wifiModel.Predict(sample(i))
		if results[i].Class != want.Class || results[i].X != want.Pos.X || results[i].Y != want.Pos.Y {
			t.Fatalf("request %d: batched result %+v != direct %+v", i, results[i], want)
		}
	}
	// The held request's pass plus exactly one for the n requests.
	if passes, rows := s.metrics.BatchStats("localize"); passes != 2 || rows != int64(n)+1 {
		t.Fatalf("localize batcher ran %d passes over %d rows, want 2 over %d", passes, rows, n+1)
	}
}

// A placed model is packed by the first pass large enough to read the
// panels, not before: lone fixes and small passes leave it at one fp64
// copy of its weights (and the fine-head screen, which its first pass of
// any size builds and every pass reads). Callers racing through a first
// 32-row pass — two split chunks on the screen's row kernels (batching off, so
// each runs its own; run under -race) — wait for one build and all get
// the lone-Predict answer.
func TestFirstLargePassPacksThePlacedModelOnce(t *testing.T) {
	fixtures(t)
	wifi, reference := core.NewWiFiModel(wifiDS, wifiCfg), core.NewWiFiModel(wifiDS, wifiCfg)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "fresh", Kind: KindWiFi, WiFi: wifi})
	eng := NewEngine(Config{Registry: reg, BatchWindow: 0, MaxBatch: 64})
	fps := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = wifiDS.Test[i%len(wifiDS.Test)].Features
		}
		return out
	}
	localize := func(n int) []core.WiFiPrediction {
		preds, err := eng.Localize(context.Background(), LocalizeQuery{Model: "fresh", Fingerprints: fps(n)})
		if err != nil {
			t.Error(err)
		}
		return preds
	}
	for _, n := range []int{1, mat.PackedMinRows - 1} {
		for i, p := range localize(n) {
			if want := reference.Predict(fps(n)[i]); p != want {
				t.Fatalf("%d-row pass, row %d: %+v, lone Predict on a never-screened twin gives %+v", n, i, p, want)
			}
		}
		if wifi.PackedBytes() != 0 {
			t.Fatalf("a %d-row pass packed the model", n)
		}
	}
	screened := wifi.ScreenBytes()
	if reference.ScreenBytes() != 0 {
		t.Fatal("the twin no engine serves was screened")
	}

	const callers, rows = 8, 32
	got := make([][]core.WiFiPrediction, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = localize(rows)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		for i, fp := range fps(rows) {
			if want := reference.Predict(fp); got[g][i] != want {
				t.Fatalf("caller %d row %d: %+v, lone Predict on a never-packed twin gives %+v", g, i, got[g][i], want)
			}
		}
	}
	packed := wifi.PackedBytes()
	if packed == 0 {
		t.Skip("no packed layout on this host (no AVX tiles)")
	}
	if reference.PackedBytes() != 0 {
		t.Fatal("the twin no engine serves was packed")
	}
	localize(rows)
	if wifi.PackedBytes() != packed {
		t.Fatalf("packed bytes %d -> %d after a later pass", packed, wifi.PackedBytes())
	}
	if screened == 0 || wifi.ScreenBytes() != screened {
		t.Fatalf("screen bytes %d after the first pass, %d at the end: want one build, on the first pass", screened, wifi.ScreenBytes())
	}
}

// A panic inside a pass core has split across cores — here a fine head
// wider than its codebook, so every chunk's decode indexes past the end —
// may happen on a helper goroutine, outside the batcher's recover. It
// must still come back as a 500 inference error, not end the process.
// The model is wide (160 → 256 → 256 → 1002) so each of the 48-row
// pass's three chunks lasts long enough for a helper to claim one. Five
// passes in a row: the engine keeps answering, and a helper whose panic
// escaped its pass would end the test binary during a later one.
func TestSplitPassPanicIsInferenceError(t *testing.T) {
	ds := &dataset.WiFi{NumWAPs: 160, NumBuildings: 1, NumFloors: 1}
	ds.Train = make([]dataset.WiFiSample, 1002)
	for i := range ds.Train {
		ds.Train[i].Pos = geo.Point{X: float64(i%34) * 4.5, Y: float64(i/34) * 4.5}
	}
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = []int{256, 256}
	wifi := core.NewWiFiModel(ds, cfg)
	wifi.Grids = &quantize.MultiRes{Fine: new(quantize.Grid), Coarse: wifi.Grids.Coarse}
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "broken", Kind: KindWiFi, WiFi: wifi})
	eng := NewEngine(Config{Registry: reg, BatchWindow: 5 * time.Millisecond, MaxBatch: 64})
	fps := make([][]float64, 48)
	for i := range fps {
		fps[i] = make([]float64, ds.NumWAPs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range 5 {
		_, err := eng.Localize(context.Background(), LocalizeQuery{Model: "broken", Fingerprints: fps})
		var e *Error
		if !errors.As(err, &e) || e.Code != CodeInference || e.Status != http.StatusInternalServerError ||
			!strings.Contains(e.Message, "inference panic") {
			t.Fatalf("Localize returned %v, want a 500 %s error for the inference panic", err, CodeInference)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	man := Manifest{Kind: KindWiFi, WiFi: &WiFiBundle{Plan: "ipin", Dataset: tinyWiFiDatasetCfg(), Config: wifiCfg}}
	if err := WriteBundle(dir, "rt", man, func(f *os.File) error { return wifiModel.Save(f) }); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(filepath.Join(dir, "rt"))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "rt" || loaded.Kind != KindWiFi || loaded.WiFi == nil {
		t.Fatalf("bad loaded model %+v", loaded)
	}
	for _, smp := range wifiDS.Test[:5] {
		if got, want := loaded.WiFi.Predict(smp.Features), wifiModel.Predict(smp.Features); got != want {
			t.Fatalf("restored bundle predicts %+v, original %+v", got, want)
		}
	}
}

// writeImmediateLifecycle marks a bundle for direct activation on load
// (lifecycle.json immediate), restoring the pre-lifecycle swap behavior
// for tests that pin it.
func writeImmediateLifecycle(t *testing.T, bundleDir string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(bundleDir, lifecycleFile), []byte(`{"immediate": true}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tinyWiFiDatasetCfg mirrors the fixture's dataset spec for manifests.
func tinyWiFiDatasetCfg() dataset.WiFiConfig {
	dcfg := dataset.SmallIPINConfig()
	dcfg.NumWAPs = 16
	dcfg.RefSpacing = 8
	dcfg.SamplesPerRef = 3
	dcfg.TestSamplesPerRef = 1
	dcfg.Seed = 11
	return dcfg
}

func TestRegistryHotReload(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	dcfg := tinyWiFiDatasetCfg()
	man := Manifest{Kind: KindWiFi, WiFi: &WiFiBundle{Plan: "ipin", Dataset: dcfg, Config: wifiCfg}}
	if err := WriteBundle(dir, "m", man, func(f *os.File) error { return wifiModel.Save(f) }); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(dir, t.Logf)
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("initial reload: loaded=%d err=%v", loaded, err)
	}
	gen1, ok := reg.Get("m")
	if !ok || gen1.Generation != 1 {
		t.Fatalf("generation after first load: %+v", gen1)
	}

	// Unchanged bundle must not reload.
	if loaded, _, err := reg.Reload(); err != nil || loaded != 0 {
		t.Fatalf("idempotent reload: loaded=%d err=%v", loaded, err)
	}

	// Publish new weights under the same name (a differently-seeded
	// training run) and bump mtimes past filesystem granularity.
	cfg2 := wifiCfg
	cfg2.Seed = 99
	model2 := core.TrainWiFi(wifiDS, cfg2)
	man2 := man
	man2.WiFi = &WiFiBundle{Plan: "ipin", Dataset: dcfg, Config: cfg2}
	if err := WriteBundle(dir, "m", man2, func(f *os.File) error { return model2.Save(f) }); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	for _, f := range []string{"manifest.json", "weights.gob"} {
		if err := os.Chtimes(filepath.Join(dir, "m", f), future, future); err != nil {
			t.Fatal(err)
		}
	}

	// A changed bundle of a served name enters SHADOW: the active
	// generation keeps answering traffic untouched.
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("hot reload: loaded=%d err=%v", loaded, err)
	}
	active, _ := reg.Get("m")
	if active.Generation != 1 || active.WiFi != gen1.WiFi || active.Stage != StageActive {
		t.Fatalf("active after shadow publish: gen=%d stage=%s", active.Generation, active.Stage)
	}
	staged, ok := reg.Staged("m")
	if !ok || staged.Generation != 2 || staged.Stage != StageShadow {
		t.Fatalf("staged after publish: ok=%v %+v", ok, staged)
	}
	if staged.WiFi == gen1.WiFi {
		t.Fatal("shadow generation must be a new model instance")
	}

	// The same shadow bundle must not reload again.
	if loaded, _, err := reg.Reload(); err != nil || loaded != 0 {
		t.Fatalf("idempotent shadow reload: loaded=%d err=%v", loaded, err)
	}

	// Promote shadow → canary → active through the single transition
	// func: the canary takes over traffic atomically and gen1 retires.
	if err := reg.Transition("m", StageCanary, "test"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Transition("m", StageActive, "test"); err != nil {
		t.Fatal(err)
	}
	gen2, _ := reg.Get("m")
	if gen2.Generation != 2 || gen2.Stage != StageActive {
		t.Fatalf("generation after promotion: gen=%d stage=%s, want gen=2 active", gen2.Generation, gen2.Stage)
	}
	if gen2.WiFi == gen1.WiFi {
		t.Fatal("promotion must swap in the new model instance")
	}
	if gen1.Stage != StageRetired {
		t.Fatalf("old active stage after promotion: %s, want retired", gen1.Stage)
	}
	if _, ok := reg.Staged("m"); ok {
		t.Fatal("promotion must clear the staged slot")
	}

	// Removing the bundle dir drops the model.
	if err := os.RemoveAll(filepath.Join(dir, "m")); err != nil {
		t.Fatal(err)
	}
	if _, removed, err := reg.Reload(); err != nil || removed != 1 {
		t.Fatalf("removal: removed=%d err=%v", removed, err)
	}
	if _, ok := reg.Get("m"); ok {
		t.Fatal("removed bundle must leave the registry")
	}
}

func TestRegistryKeepsServingOnBrokenBundle(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	man := Manifest{Kind: KindWiFi, WiFi: &WiFiBundle{Plan: "ipin", Dataset: tinyWiFiDatasetCfg(), Config: wifiCfg}}
	if err := WriteBundle(dir, "m", man, func(f *os.File) error { return wifiModel.Save(f) }); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(dir, t.Logf)
	reg.Reload()

	// Corrupt the weights; the old generation must keep serving.
	future := time.Now().Add(2 * time.Second)
	if err := os.WriteFile(filepath.Join(dir, "m", "weights.gob"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Chtimes(filepath.Join(dir, "m", "weights.gob"), future, future)
	if loaded, removed, err := reg.Reload(); err != nil || loaded != 0 || removed != 0 {
		t.Fatalf("broken bundle: loaded=%d removed=%d err=%v", loaded, removed, err)
	}
	m, ok := reg.Get("m")
	if !ok || m.Generation != 1 {
		t.Fatal("previous generation must keep serving after a broken publish")
	}
}

// TestRegistryBrokenBundleLogsOncePerGeneration pins the reload backoff:
// a persistently corrupt bundle is loaded (and logged) once, then left
// alone until its bytes change on disk — no per-poll log spam, no
// per-poll rebuild of a bundle that cannot have healed.
func TestRegistryBrokenBundleLogsOncePerGeneration(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	man := Manifest{Kind: KindWiFi, WiFi: &WiFiBundle{Plan: "ipin", Dataset: tinyWiFiDatasetCfg(), Config: wifiCfg}}
	if err := WriteBundle(dir, "m", man, func(f *os.File) error { return wifiModel.Save(f) }); err != nil {
		t.Fatal(err)
	}

	// Republishes in this test pin the pre-lifecycle direct-swap path.
	writeImmediateLifecycle(t, filepath.Join(dir, "m"))

	var mu sync.Mutex
	var failLogs int
	logf := func(format string, args ...any) {
		mu.Lock()
		if strings.Contains(fmt.Sprintf(format, args...), "keeps serving") {
			failLogs++
		}
		mu.Unlock()
		t.Logf(format, args...)
	}
	reg := NewRegistry(dir, logf)
	reg.Reload()

	corrupt := func(payload string, offset time.Duration) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "m", "weights.gob"), []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		stamp := time.Now().Add(offset)
		if err := os.Chtimes(filepath.Join(dir, "m", "weights.gob"), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	corrupt("garbage", 2*time.Second)

	// Many polls over one broken generation: exactly one log line.
	for i := 0; i < 5; i++ {
		if loaded, removed, err := reg.Reload(); err != nil || loaded != 0 || removed != 0 {
			t.Fatalf("poll %d: loaded=%d removed=%d err=%v", i, loaded, removed, err)
		}
	}
	if failLogs != 1 {
		t.Fatalf("broken generation logged %d times, want once", failLogs)
	}

	// A DIFFERENT broken publish (new stamp) is a new generation: one
	// more log line, and still only one across further polls.
	corrupt("other garbage", 4*time.Second)
	for i := 0; i < 3; i++ {
		reg.Reload()
	}
	if failLogs != 2 {
		t.Fatalf("second broken generation logged %d times total, want 2", failLogs)
	}

	// A healthy republish loads immediately and resets the backoff.
	if err := WriteBundle(dir, "m", man, func(f *os.File) error { return wifiModel.Save(f) }); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(6 * time.Second)
	for _, f := range []string{"manifest.json", "weights.gob"} {
		if err := os.Chtimes(filepath.Join(dir, "m", f), future, future); err != nil {
			t.Fatal(err)
		}
	}
	if loaded, _, err := reg.Reload(); err != nil || loaded != 1 {
		t.Fatalf("healthy republish: loaded=%d err=%v", loaded, err)
	}
	m, ok := reg.Get("m")
	if !ok || m.Generation != 2 {
		t.Fatalf("republish generation %+v, want 2", m)
	}
	// And a later corruption logs again (the failed stamp was cleared).
	corrupt("garbage 3", 8*time.Second)
	reg.Reload()
	reg.Reload()
	if failLogs != 3 {
		t.Fatalf("post-recovery corruption logged %d times total, want 3", failLogs)
	}
}
