package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Fuzz targets for the two bundle files the registry parses but did not
// write, and for the NDJSON tracking stream, the one request body read
// line by line. Seeds: the sidecars the lifecycle tests publish, what
// WriteBundle emits, plus the shapes the negative tests use; more under
// testdata/fuzz.

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
		spec, err := ReadLifecycleSpec(dir)
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

// FuzzTrackStream: arbitrary /v2/track/stream bodies never panic the
// server, and what comes back is the protocol — every line a stream
// line, seq counting up from 1, at most one error line and nothing after
// it. Each input runs on a fresh server over the same tiny demo bundles,
// so sessions one input names cannot leak into the next.
func FuzzTrackStream(f *testing.F) {
	dir := f.TempDir()
	if err := TrainDemoBundles(dir, DemoTiny, nil); err != nil {
		f.Fatal(err)
	}
	reg := NewRegistry(dir, func(string, ...any) {})
	if _, _, err := reg.Reload(); err != nil {
		f.Fatal(err)
	}
	imuM, ok := reg.Get("demo-imu")
	if !ok {
		f.Fatal("no demo-imu bundle")
	}
	wifiM, ok := reg.Get("demo-wifi")
	if !ok {
		f.Fatal("no demo-wifi bundle")
	}
	seg := "[" + strings.TrimSuffix(strings.Repeat("0.25,", imuM.IMU.SegmentDim()), ",") + "]"
	fp := "[" + strings.TrimSuffix(strings.Repeat("-0.5,", wifiM.WiFi.InputDim()), ",") + "]"
	open := `{"model":"demo-imu","start":{"x":30,"y":6}}`
	for _, seed := range []string{
		open + "\n" + `{"features":` + seg + "}\n",
		`{"session":"dev-1","model":"demo-imu","start":{"x":1,"y":2},"window":3}` + "\n\n" + `{"features":` + seg + "}\n",
		open + "\n" + `{"features":` + seg + `,"wifi_model":"demo-wifi","fingerprint":` + fp + "}\n",
		open + "\n" + `{"features":[1,2,3]}` + "\n" + `{"features":` + seg + "}\n",
		open + "\n{not json\n" + `{"features":` + seg + "}\n",
		`{"model":"nope","start":{"x":0,"y":0}}` + "\n",
		`{"features":` + seg + "}\n",
		open + "\n" + `{"features":` + seg + `,"deadline_ms":-1}`,
		open,
		"\n \r\n\t\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Registry: reg})
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/track/stream", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		sc := bufio.NewScanner(w.Body)
		sc.Buffer(nil, 1<<20)
		seq, failed := 0, false
		for sc.Scan() {
			if failed {
				t.Fatalf("line after the error line: %s", sc.Bytes())
			}
			var l v2StreamLine
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&l); err != nil {
				t.Fatalf("line %d is not a stream line (%v): %s", seq+1, err, sc.Bytes())
			}
			if seq++; l.Seq != seq {
				t.Fatalf("line %d has seq %d", seq, l.Seq)
			}
			failed = l.Error != nil
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
