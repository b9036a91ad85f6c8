package main

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"noble/internal/serve"
)

// Demo bundles shared across driver tests, trained once per test binary
// (the tiny spec trains in well under a second).
var (
	demoOnce sync.Once
	demoDir  string
	demoErr  error
)

func demoModels(t *testing.T) string {
	t.Helper()
	demoOnce.Do(func() {
		demoDir, demoErr = os.MkdirTemp("", "loadgen-models-")
		if demoErr == nil {
			demoErr = serve.TrainDemoBundles(demoDir, serve.DemoTiny, nil)
		}
	})
	if demoErr != nil {
		t.Fatalf("training demo bundles: %v", demoErr)
	}
	return demoDir
}

// demoServer is a running server over the tiny demo bundles, batching at
// noble-serve's defaults — what noble-loadgen points Drive at.
func demoServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry(demoModels(t), func(string, ...any) {})
	if _, _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{
		Registry: reg, BatchWindow: 2 * time.Millisecond, MaxBatch: 32,
	}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestDriveEveryModeClosedLoopAndPaced(t *testing.T) {
	ts := demoServer(t)
	for _, mode := range []string{"localize", "track", "stream"} {
		for _, qps := range []float64{0, 400} {
			name := mode + "/closed"
			if qps > 0 {
				name = mode + "/paced"
			}
			t.Run(name, func(t *testing.T) {
				run, err := Workload(mode, 0)
				if err != nil {
					t.Fatal(err)
				}
				// A seed per run keeps the session ids apart on the shared
				// server; -fix-every 4 is the retrain-loop tests' fix
				// cadence.
				d, err := Drive(context.Background(), ts.URL, Load{
					Run: run, Concurrency: 3, Duration: 300 * time.Millisecond,
					Seed: int64(len(name)*1000) + int64(qps), FixEvery: 4, QPS: qps,
				})
				if err != nil {
					t.Fatal(err)
				}
				if d.Ok == 0 || d.Errors != 0 || len(d.ByClass) != 0 {
					t.Fatalf("ok=%d errors=%d by class %v", d.Ok, d.Errors, d.ByClass)
				}
				if d.WiFi.Name != "demo-wifi" || d.IMU.Name != "demo-imu" {
					t.Fatalf("drove wifi=%q imu=%q, want the fp64 demo pair", d.WiFi.Name, d.IMU.Name)
				}
				if qps == 0 {
					if d.Offered != 0 || d.Shed != 0 {
						t.Fatalf("closed loop reports arrivals: %d offered, %d shed", d.Offered, d.Shed)
					}
					return
				}
				// Every paced arrival is either executed or counted as
				// shed: nothing the target rate asked for goes missing.
				if d.Offered == 0 || d.Ok+d.Shed != d.Offered {
					t.Fatalf("ok %d + shed %d != offered %d", d.Ok, d.Shed, d.Offered)
				}
				if want := int64(qps * 0.3); d.Offered < want*3/4 || d.Offered > want {
					t.Fatalf("offered %d arrivals in 300ms at %v qps, want about %d", d.Offered, qps, want)
				}
			})
		}
	}
}

// A worker pool too small for the rate must show up as shed arrivals,
// not as a silently lower request rate.
func TestDriveCountsShedArrivals(t *testing.T) {
	ts := demoServer(t)
	run, _ := Workload("localize", 0)
	d, err := Drive(context.Background(), ts.URL, Load{
		Run: run, Concurrency: 1, Duration: 300 * time.Millisecond, Seed: 5, QPS: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Shed == 0 || d.Ok+d.Shed != d.Offered {
		t.Fatalf("one worker at 20k qps: ok %d, shed %d, offered %d", d.Ok, d.Shed, d.Offered)
	}
}

func TestDriveRejectsUngenerableLoads(t *testing.T) {
	run, _ := Workload("localize", 0)
	ok := Load{Run: run, Concurrency: 1, Duration: time.Second}
	for name, mutate := range map[string]func(*Load){
		"zero concurrency":  func(l *Load) { l.Concurrency = 0 },
		"negative duration": func(l *Load) { l.Duration = -time.Second },
		"negative qps":      func(l *Load) { l.QPS = -1 },
		"qps past 1e6":      func(l *Load) { l.QPS = 2e9 }, // the interval rounds to 0: time.NewTicker panicked here
	} {
		l := ok
		mutate(&l)
		// The URL is never dialled: validation comes first.
		if _, err := Drive(context.Background(), "http://127.0.0.1:1", l); err == nil || strings.Contains(err.Error(), "listing models") {
			t.Errorf("%s: err = %v, want a validation error", name, err)
		}
	}
	if _, err := Workload("stream", time.Millisecond); err == nil {
		t.Error("stream mode accepted a per-request deadline")
	}
	if _, err := Workload("teleport", 0); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestDriveNamedModels(t *testing.T) {
	ts := demoServer(t)
	run, _ := Workload("localize", 0)
	load := Load{Run: run, Concurrency: 1, Duration: 50 * time.Millisecond, WiFi: "demo-wifi-int8"}
	d, err := Drive(context.Background(), ts.URL, load)
	if err != nil || d.WiFi.Name != "demo-wifi-int8" || d.Ok == 0 {
		t.Fatalf("named int8 model: drove %q, ok %d, err %v", d.WiFi.Name, d.Ok, err)
	}
	load.WiFi = "no-such-model"
	if _, err := Drive(context.Background(), ts.URL, load); err == nil {
		t.Fatal("a model the server does not list must fail the drive")
	}
}
