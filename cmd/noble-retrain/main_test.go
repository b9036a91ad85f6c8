package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noble/internal/geo"
	"noble/internal/serve"
	"noble/internal/store"
)

// TestHelpGolden pins the command's -h output (modulo the binary-name
// "Usage of" header): ten flags. The corpus policy is not among them —
// it belongs to internal/retrain. Adding or renaming a flag has to be
// deliberate enough to update the golden file.
//
// Regenerate with: go test ./cmd/noble-retrain -run TestHelpGolden -update
var update = flag.Bool("update", false, "rewrite testdata/help.golden")

func TestHelpGolden(t *testing.T) {
	fs := newFlagSet(&options{})
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	count := 0
	fs.VisitAll(func(*flag.Flag) { count++ })
	if count != 10 {
		t.Errorf("%d flags, want 10", count)
	}

	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing %s: %v", golden, err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("flag help drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestRunRetrainsHarvestedFixesIntoShadow runs the one-shot command
// against the journal of a live engine over the tiny demo bundles. With
// no fix in the journal it refuses; after tracking sessions re-anchor on
// survey fingerprints it retrains demo-wifi, and the republished bundle
// stages in shadow, carrying the sidecar the flags asked for, while the
// active generation keeps serving.
func TestRunRetrainsHarvestedFixesIntoShadow(t *testing.T) {
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
	eng := serve.NewEngine(serve.Config{Registry: reg, Journal: j})
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	base, _ := reg.Get("demo-wifi")
	args := []string{"-state-dir", state, "-models", models, "-model", "demo-wifi", "-target", "active",
		"-policy-min-shadow", "40", "-policy-min-canary", "40",
		"-policy-max-error-delta", "500", "-policy-max-p99-delta", "10000"}

	var out bytes.Buffer
	if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "is empty after harvest") {
		t.Fatalf("run on a fix-less journal: %v, want the empty-corpus refusal", err)
	}

	// Two devices, eight steps each, a WiFi fix on every 4th step.
	ds, err := readWiFiManifest(t, models).WiFi.BuildWiFiDataset()
	if err != nil {
		t.Fatal(err)
	}
	imu, _ := reg.Get("demo-imu")
	for i := 0; i < 16; i++ {
		q := serve.SegmentQuery{Session: []string{"dev-a", "dev-b"}[i%2], Features: make([]float64, imu.IMU.SegmentDim())}
		if step := i / 2; step == 0 {
			q.Model, q.Start = "demo-imu", &geo.Point{X: 6, Y: 54}
		} else if step%4 == 0 {
			q.WiFiModel, q.Fingerprint = "demo-wifi", ds.Test[i%len(ds.Test)].Features
		}
		if _, err := eng.AppendSegments(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "retrained demo-wifi:") || !strings.Contains(out.String(), "harvested samples") {
		t.Fatalf("run printed %q, want the retrain summary", out.String())
	}

	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if active, _ := reg.Get("demo-wifi"); active.BundleID != base.BundleID {
		t.Fatalf("the retrain reached active without shadow: %s, want %s", active.BundleID, base.BundleID)
	}
	staged, ok := reg.Staged("demo-wifi")
	if !ok || staged.Stage != serve.StageShadow {
		t.Fatalf("retrain not staged in shadow: ok=%v %+v", ok, staged)
	}
	want := serve.LifecyclePolicy{MinShadowRequests: 40, MinCanaryRequests: 40, MaxErrorDeltaM: 500, MaxP99DeltaMS: 10000}
	if staged.TargetStage != serve.StageActive || staged.Policy != want {
		t.Fatalf("sidecar target %q policy %+v, want active %+v", staged.TargetStage, staged.Policy, want)
	}
}

func readWiFiManifest(t *testing.T, models string) serve.Manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(models, "demo-wifi", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}
