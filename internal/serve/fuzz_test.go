package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the two bundle files the registry parses but did not
// write. Seeds: what ci/publishgen and WriteBundle emit, plus the shapes
// the negative tests use; more under testdata/fuzz.

// FuzzReadLifecycleSpec: arbitrary lifecycle.json bytes never panic,
// and an accepted spec names a reachable target stage and yields an
// all-positive policy.
func FuzzReadLifecycleSpec(f *testing.F) {
	for _, seed := range []string{
		`{"target": "active", "immediate": false, "policy": {"min_shadow_requests": 40, "min_canary_requests": 40, "max_error_delta_m": 0.5, "max_p99_delta_ms": 10000}}`,
		`{"immediate": true}`,
		`{"target": "canary"}`,
		`{"target": ""}`,
		`{"target": "retired"}`,
		`{"policy": {"min_shadow_requests": -5, "max_error_delta_m": -1e308}}`,
		`{"target": 3}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, lifecycleFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := readLifecycleSpec(dir)
		if err != nil {
			return
		}
		switch Stage(spec.Target) {
		case StageShadow, StageCanary, StageActive:
		default:
			t.Fatalf("accepted target %q", spec.Target)
		}
		p := spec.Policy.withDefaults()
		if !(p.MinShadowRequests > 0 && p.MinCanaryRequests > 0 && p.MaxErrorDeltaM > 0 && p.MaxP99DeltaMS > 0) {
			t.Fatalf("accepted policy is not all-positive after defaults: %+v", p)
		}
	})
}

// FuzzOpenBundleManifest: arbitrary manifest.json bytes never panic,
// and an accepted manifest opens a regular file inside the bundle
// directory — never a path the manifest smuggled in.
func FuzzOpenBundleManifest(f *testing.F) {
	for _, seed := range []string{
		`{"kind": "wifi", "weights": "weights.gob", "wifi": {"plan": "ipin", "dataset": {"NumWAPs": 40, "Seed": 2016}, "config": {"Hidden": [128, 128], "Epochs": 2, "Seed": 2}}}`,
		`{"kind": "imu"}`,
		`{"kind": "wifi", "precision": {"mode": "int8", "error_budget_pct": 5}}`,
		`{"kind": "nope"}`,
		`{"weights": "../weights.gob"}`,
		`{"weights": "sub/weights.gob"}`,
		`{"weights": "."}`,
		`{"weights": ".."}`,
		`{"weights": "/etc/passwd"}`,
		`{"weights": "manifest.json"}`,
		`{"weights": 7}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, defaultWeightsFile), []byte("weights"), 0o644); err != nil {
		f.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		man, wf, err := openBundle(dir)
		if err != nil {
			return
		}
		defer wf.Close()
		if got := filepath.Dir(wf.Name()); got != dir || filepath.Base(wf.Name()) != man.Weights {
			t.Fatalf("manifest weights %q opened %s, outside bundle dir %s", man.Weights, wf.Name(), dir)
		}
		if fi, err := wf.Stat(); err != nil || !fi.Mode().IsRegular() {
			t.Fatalf("manifest weights %q opened a non-regular file (%v)", man.Weights, err)
		}
	})
}
