package retrain_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"noble/internal/geo"
	"noble/internal/retrain"
	"noble/internal/serve"
	"noble/internal/serve/lifecycle"
	"noble/internal/store"
)

// TestRetrainLoop closes the loop in one process over the tiny demo
// bundles: tracking sessions re-anchor on recorded survey fingerprints,
// which fills the journal with fixes; POST /admin/retrain/demo-wifi on
// the debug plane harvests them and retrains demo-wifi in the server's
// own manager; /debug/retrain and the noble_retrain_* metrics account for
// the run; and the retrained generation, mirrored on localize traffic,
// rides shadow, then canary, then active.
func TestRetrainLoop(t *testing.T) {
	models, state := t.TempDir(), t.TempDir()
	if err := serve.TrainDemoBundles(models, serve.DemoTiny, t.Logf); err != nil {
		t.Fatal(err)
	}
	j, err := store.Open(store.Config{Dir: state, Fsync: store.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := serve.NewRegistry(models, t.Logf)
	eng := serve.NewEngine(serve.Config{Registry: reg, Journal: j, MirrorRate: 1})
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	mgr := retrain.NewManager(retrain.ManagerConfig{
		StateDir:  state,
		ModelsDir: models,
		Lifecycle: &serve.LifecycleSpec{Target: "active", Policy: serve.LifecyclePolicy{
			MinShadowRequests: 40, MinCanaryRequests: 40, MaxErrorDeltaM: 500, MaxP99DeltaMS: 10000,
		}},
		Reload: func() error { _, _, err := reg.Reload(); return err },
		Logf:   t.Logf,
	})
	srv := serve.NewServer(eng)
	srv.SetRetrain(mgr)
	admin := srv.DebugHandler()
	ctl := &lifecycle.Controller{Registry: reg, Logf: t.Logf}
	base, _ := reg.Get("demo-wifi")

	// Eight devices, eight steps each, a WiFi fix on every 4th step.
	raw, err := os.ReadFile(filepath.Join(models, "demo-wifi", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	ds, err := man.WiFi.BuildWiFiDataset()
	if err != nil {
		t.Fatal(err)
	}
	imu, _ := reg.Get("demo-imu")
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		q := serve.SegmentQuery{Session: fmt.Sprintf("dev-%d", i%8), Features: make([]float64, imu.IMU.SegmentDim())}
		if step := i / 8; step == 0 {
			q.Model, q.Start = "demo-imu", &geo.Point{X: 6, Y: 54}
		} else if step%4 == 0 {
			q.WiFiModel, q.Fingerprint = "demo-wifi", ds.Test[i%len(ds.Test)].Features
		}
		if _, err := eng.AppendSegments(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	call := func(method, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		admin.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr
	}
	if rr := call(http.MethodPost, "/admin/retrain/demo-wifi"); rr.Code != http.StatusAccepted {
		t.Fatalf("admin kick: %d %s", rr.Code, rr.Body)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var status struct {
			LastRun *retrain.RunRecord `json:"last_run"`
		}
		if err := json.Unmarshal(call(http.MethodGet, "/debug/retrain").Body.Bytes(), &status); err != nil {
			t.Fatal(err)
		}
		if r := status.LastRun; r != nil && r.Status == "ok" {
			break
		} else if r != nil {
			t.Fatalf("kicked retrain failed: %s", r.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("/debug/retrain reported no finished run in two minutes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	metric := func(series string) int {
		for _, line := range strings.Split(call(http.MethodGet, "/metrics").Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				n, _ := strconv.Atoi(v)
				return n
			}
		}
		return 0
	}
	for _, series := range []string{`noble_retrain_runs_total{status="ok"}`,
		`noble_retrain_corpus_fixes{model="demo-wifi"}`, `noble_retrain_harvested_fixes_total`} {
		if n := metric(series); n < 1 {
			t.Errorf("%s = %d, want ≥ 1", series, n)
		}
	}

	// The manager's reload staged the retrain; the controller walks it
	// up one stage per tick while every localize row is mirrored.
	var stages []serve.Stage
	for i := 0; ; i++ {
		active, _ := reg.Get("demo-wifi")
		if active.BundleID != base.BundleID {
			break
		}
		if st, ok := reg.Staged("demo-wifi"); !ok {
			t.Fatalf("the retrain left staging without reaching active, after %v", stages)
		} else if len(stages) == 0 || stages[len(stages)-1] != st.Stage {
			stages = append(stages, st.Stage)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the retrain did not reach active in two minutes; stages %v", stages)
		}
		q := serve.LocalizeQuery{Model: "demo-wifi", Fingerprints: [][]float64{ds.Test[i%len(ds.Test)].Features}}
		if _, err := eng.Localize(ctx, q); err != nil {
			t.Fatal(err)
		}
		ctl.Tick()
		time.Sleep(time.Millisecond)
	}
	if want := []serve.Stage{serve.StageShadow, serve.StageCanary}; !slices.Equal(stages, want) {
		t.Fatalf("the retrain reached active through %v, want %v", stages, want)
	}
	if n := metric(`noble_lifecycle_transitions_total{model="demo-wifi",to="shadow"}`); n < 1 {
		t.Fatalf("%d transitions to shadow", n)
	}
}
