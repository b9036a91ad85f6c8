package client_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noble/client"
	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/imu"
	"noble/internal/serve"
)

// Tiny fixture models, trained once per test binary (same spec as the
// serve package's own fixtures).
var (
	fixOnce   sync.Once
	wifiDS    *dataset.WiFi
	wifiModel *core.WiFiModel
	imuDS     *imu.PathDataset
	imuModel  *core.IMUModel
)

func fixtures(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		dcfg := dataset.SmallIPINConfig()
		dcfg.NumWAPs = 16
		dcfg.RefSpacing = 8
		dcfg.SamplesPerRef = 3
		dcfg.TestSamplesPerRef = 1
		dcfg.Seed = 11
		wifiDS = dataset.SynthIPIN(dcfg)
		wcfg := core.DefaultWiFiConfig()
		wcfg.Hidden = []int{16}
		wcfg.Epochs = 3
		wcfg.TauFine = 1
		wcfg.TauCoarse = 8
		wifiModel = core.TrainWiFi(wifiDS, wcfg)

		sensors := imu.DefaultConfig()
		sensors.ReadingsPerSegment = 32
		sensors.TotalSegments = 40
		bundle := &serve.IMUBundle{
			Spacing: 12, Sensors: sensors, Seed: 5,
			Paths: imu.PathConfig{
				NumPaths: 120, MaxLen: 4, Frames: 3,
				TrainFrac: 0.7, ValFrac: 0.1, Seed: 7,
			},
		}
		icfg := core.DefaultIMUConfig()
		icfg.ProjDim = 8
		icfg.Hidden = []int{16, 16}
		icfg.Tau = 2
		icfg.Epochs = 3
		bundle.Config = icfg
		imuDS = bundle.BuildIMUDataset()
		imuModel = core.TrainIMU(imuDS, icfg)
	})
}

// newServer spins a real serve.Server over the fixture models.
func newServer(t *testing.T, window time.Duration) *httptest.Server {
	t.Helper()
	fixtures(t)
	reg := serve.NewRegistry("", t.Logf)
	reg.Add(&serve.Model{Name: "wifi", Kind: serve.KindWiFi, WiFi: wifiModel})
	reg.Add(&serve.Model{Name: "imu", Kind: serve.KindIMU, IMU: imuModel})
	ts := httptest.NewServer(serve.New(serve.Config{Registry: reg, BatchWindow: window, MaxBatch: 64}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// withoutV2 is a server that routes no /v2 path — a build older than
// /v2, or a proxy that hides it: every request gets the plain-text 404.
// paths reports what it was asked for.
func withoutV2(t *testing.T) (url string, paths func() []string) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path)
		mu.Unlock()
		http.NotFound(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// The client speaks /v2 only: against a /v2 server every call works,
// and a server without /v2 gets one request per call and answers it
// with a 404 the client surfaces — the client no longer falls back to
// /v1.
func TestLocalizeAgainstV2AndV1(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		c := client.New(newServer(t, 0).URL)
		got, err := c.Localize(context.Background(), "wifi", wifiDS.Test[0].Features, wifiDS.Test[1].Features)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%d results", len(got))
		}
		for i, smp := range []int{0, 1} {
			want := wifiModel.Predict(wifiDS.Test[smp].Features)
			if got[i].X != want.Pos.X || got[i].Y != want.Pos.Y || got[i].Class != want.Class ||
				got[i].Building != want.Building || got[i].Floor != want.Floor {
				t.Fatalf("result %d: %+v, model predicts %+v", i, got[i], want)
			}
		}
		if _, err := c.Models(context.Background()); err != nil {
			t.Fatalf("models after first call: %v", err)
		}
		h, err := c.Health(context.Background())
		if err != nil || h.Status != "ok" || h.Models != 2 {
			t.Fatalf("health: %+v err %v", h, err)
		}
	})
	t.Run("v1-fallback", func(t *testing.T) {
		url, paths := withoutV2(t)
		c := client.New(url)
		for i := 0; i < 2; i++ {
			_, err := c.Localize(context.Background(), "wifi", wifiDS.Test[0].Features)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "" {
				t.Fatalf("call %d: err %v, want the server's plain 404 as an *APIError", i, err)
			}
		}
		if got := strings.Join(paths(), " "); got != "/v2/localize /v2/localize" {
			t.Fatalf("server saw %q, want one /v2/localize per call and no /v1 retry", got)
		}
	})
}

// The SDK has one JSON decoder, encoding/json, so a localize response is
// held to its grammar and its types: a fractional class is not an int
// and "+1" is not a JSON number.
func TestLocalizeResponseIsStrictlyDecoded(t *testing.T) {
	cases := map[string]struct {
		body string
		ok   bool
	}{
		"well-formed":      {`{"model":"wifi","results":[{"x":1,"y":2.5,"class":3,"building":0,"floor":1}]}`, true},
		"fractional class": {`{"model":"wifi","results":[{"x":1,"y":2.5,"class":1.5,"building":0,"floor":1}]}`, false},
		"plus-signed x":    {`{"model":"wifi","results":[{"x":+1,"y":2.5,"class":3,"building":0,"floor":1}]}`, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			got, err := client.New(ts.URL, client.WithRetries(0, 0)).Localize(context.Background(), "wifi", []float64{0})
			if tc.ok != (err == nil) {
				t.Fatalf("positions %+v, err %v; want ok=%v", got, err, tc.ok)
			}
			if tc.ok && (len(got) != 1 || got[0] != client.Position{X: 1, Y: 2.5, Class: 3, Floor: 1}) {
				t.Fatalf("positions %+v", got)
			}
		})
	}
}

func TestTrackMatchesModel(t *testing.T) {
	ts := newServer(t, 0)
	c := client.New(ts.URL)
	p := imuDS.Test[0]
	got, err := c.Track(context.Background(), "imu", []client.Path{{
		Start: client.XY{X: p.Start.X, Y: p.Start.Y}, Features: p.Features,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := imuModel.PredictPaths([]imu.Path{p})[0]
	if got[0].End.X != want.End.X || got[0].Class != want.Class {
		t.Fatalf("track %+v != model %+v", got[0], want)
	}
}

func TestTypedErrors(t *testing.T) {
	ts := newServer(t, 0)
	c := client.New(ts.URL)
	_, err := c.Localize(context.Background(), "nope", wifiDS.Test[0].Features)
	if !client.IsCode(err, client.CodeModelNotFound) {
		t.Fatalf("err %v, want model_not_found", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.RequestID == "" {
		t.Fatalf("APIError %+v", apiErr)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := newServer(t, 0)
	c := client.New(ts.URL)
	ctx := context.Background()
	seg := imuDS.Test[0].Features[:imuModel.SegmentDim()]

	sess := c.Session("sdk-dev")
	st, err := sess.Append(ctx, client.AppendRequest{Model: "imu", Start: &client.XY{X: 5, Y: 6}})
	if err != nil || !st.Created || st.Model != "imu" {
		t.Fatalf("create: %+v err %v", st, err)
	}
	st, err = sess.Append(ctx, client.AppendRequest{Features: seg})
	if err != nil || st.Steps != 1 || len(st.Results) != 1 {
		t.Fatalf("append: %+v err %v", st, err)
	}
	st, err = sess.Append(ctx, client.AppendRequest{
		Features: seg, WiFiModel: "wifi", Fingerprint: wifiDS.Test[2].Features,
	})
	if err != nil || !st.ReAnchored || st.Anchor == nil {
		t.Fatalf("fix: %+v err %v", st, err)
	}
	if st, err = sess.Get(ctx); err != nil || st.Steps != 2 {
		t.Fatalf("get: %+v err %v", st, err)
	}
	// Binding the session to another model is a typed conflict.
	if _, err := sess.Append(ctx, client.AppendRequest{Model: "other"}); !client.IsCode(err, client.CodeSessionConflict) {
		t.Fatalf("conflict err %v", err)
	}
	if err := sess.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Get(ctx); !client.IsCode(err, client.CodeSessionNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestRetriesOn5xxThenSuccess(t *testing.T) {
	var hits atomic.Int32
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":{"code":"inference_failed","message":"transient"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"request_id":"r","model":"m","results":[{"x":1,"y":2,"class":3,"building":0,"floor":0}]}`))
	}))
	defer mock.Close()
	c := client.New(mock.URL, client.WithRetries(3, time.Millisecond))
	got, err := c.Localize(context.Background(), "m", []float64{0.1})
	if err != nil || len(got) != 1 || got[0].X != 1 {
		t.Fatalf("got %+v err %v after retries", got, err)
	}
	if hits.Load() != 3 {
		t.Fatalf("%d attempts, want 3 (2 failures + success)", hits.Load())
	}
}

func TestRetriesExhaustedSurfaceLastError(t *testing.T) {
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"server_draining","message":"draining"}}`))
	}))
	defer mock.Close()
	c := client.New(mock.URL, client.WithRetries(2, time.Millisecond))
	_, err := c.Localize(context.Background(), "m", []float64{0.1})
	if !client.IsCode(err, client.CodeDraining) {
		t.Fatalf("err %v, want server_draining", err)
	}
}

func TestRetriesOnConnectionError(t *testing.T) {
	// A server that dies after the first TCP accept: the retry dials a
	// dead port and the transport error surfaces.
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := mock.URL
	mock.Close()
	c := client.New(url, client.WithRetries(1, time.Millisecond))
	if _, err := c.Localize(context.Background(), "m", []float64{0.1}); err == nil {
		t.Fatal("want a connection error")
	}
}

func TestAppendNeverRetries(t *testing.T) {
	var hits atomic.Int32
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"inference_failed","message":"boom"}}`))
	}))
	defer mock.Close()
	c := client.New(mock.URL, client.WithRetries(5, time.Millisecond))
	if _, err := c.Session("d").Append(context.Background(), client.AppendRequest{Model: "m"}); err == nil {
		t.Fatal("want error")
	}
	if hits.Load() != 1 {
		t.Fatalf("append hit the server %d times; it must never be retried", hits.Load())
	}
}

func TestFastTransportLargeAndChunkedResponses(t *testing.T) {
	// Go's HTTP server chunk-encodes any body over its 2 KiB sniff
	// buffer, so a modest localize batch already exercises the fast
	// transport's chunked decoding; the answers must match net/http's.
	ts := newServer(t, 0)
	fast := client.New(ts.URL, client.WithFastTransport())
	std := client.New(ts.URL)
	fps := make([][]float64, 60) // ~60 results ≈ 6 KB body, well past 2 KiB
	for i := range fps {
		fps[i] = wifiDS.Test[i%len(wifiDS.Test)].Features
	}
	got, err := fast.Localize(context.Background(), "wifi", fps...)
	if err != nil {
		t.Fatalf("fast transport on chunked response: %v", err)
	}
	want, err := std.Localize(context.Background(), "wifi", fps...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: fast %+v != net/http %+v", i, got[i], want[i])
		}
	}
	// And the whole session lifecycle over the fast transport.
	sess := fast.Session("fast-dev")
	if _, err := sess.Append(context.Background(), client.AppendRequest{Model: "imu", Start: &client.XY{}}); err != nil {
		t.Fatalf("fast append: %v", err)
	}
	if err := sess.Delete(context.Background()); err != nil {
		t.Fatalf("fast delete: %v", err)
	}
}

func TestAppendSurfacesPartialCommit(t *testing.T) {
	// A mid-request inference failure answers 500 with the committed
	// prefix in the body; Append must return that state alongside the
	// *APIError so the caller can resend only the unreported tail.
	body := `{"request_id":"r1","session":"d","model":"m","steps":3,"position":{"x":1,"y":2},
	         "results":[{"step":3,"end":{"x":1,"y":2},"class":7,"displacement":{"x":0,"y":0}}],
	         "error":{"code":"inference_failed","message":"inference at segment 1: boom","request_id":"r1"}}`
	t.Run("v2", func(t *testing.T) {
		mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(body))
		}))
		defer mock.Close()
		c := client.New(mock.URL)
		st, err := c.Session("d").Append(context.Background(), client.AppendRequest{})
		if !client.IsCode(err, client.CodeInference) || err.(*client.APIError).Status != http.StatusInternalServerError {
			t.Fatalf("err %v, want 500 inference_failed APIError", err)
		}
		if st.Session != "d" || st.Steps != 3 || len(st.Results) != 1 || st.Results[0].Class != 7 {
			t.Fatalf("partial-commit state lost: %+v", st)
		}
	})
}

func TestDeadlineHeaderPropagates(t *testing.T) {
	var sawDeadline atomic.Bool
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Deadline-Ms") != "" {
			sawDeadline.Store(true)
		}
		w.Write([]byte(`{"results":[]}`))
	}))
	defer mock.Close()
	c := client.New(mock.URL)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Localize(ctx, "m", []float64{0.1}); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Fatal("context deadline must be propagated as X-Deadline-Ms")
	}
}

func TestTrackStreamInteractive(t *testing.T) {
	ts := newServer(t, 0)
	c := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	segDim := imuModel.SegmentDim()
	seg := func(i int) []float64 { return imuDS.Test[i].Features[:segDim] }

	st, err := c.TrackStream(ctx, client.StreamOpen{AppendRequest: client.AppendRequest{
		Model: "imu", Start: &client.XY{X: 1, Y: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.RequestID() == "" {
		t.Fatal("stream must carry a request id")
	}

	// The open line answers first.
	u, err := st.Recv()
	if err != nil || u.Seq != 1 || u.Steps != 0 {
		t.Fatalf("open ack: %+v err %v", u, err)
	}

	// Interactive: each sent segment gets its estimate back before the
	// next is sent.
	for i := 0; i < 3; i++ {
		if err := st.Send(client.AppendRequest{Features: seg(i)}); err != nil {
			t.Fatal(err)
		}
		u, err = st.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if u.Seq != i+2 || u.Steps != i+1 || len(u.Results) != 1 {
			t.Fatalf("update %d: %+v", i, u)
		}
	}

	if err := st.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after CloseSend: %v, want EOF", err)
	}
}

// A server that commits its 200 before reading the body and sends no
// 100 Continue ends the exchange that expected one: the SDK's stream
// needs the go-ahead, and without it TrackStream fails at once with
// io.ErrClosedPipe rather than streaming. The server sees no line.
func TestTrackStreamNeedsGoAhead(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		rc.Flush()
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
	}))
	defer ts.Close()
	_, err := client.New(ts.URL).TrackStream(context.Background(), client.StreamOpen{Session: "s"})
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("err %v, want io.ErrClosedPipe", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 0 {
		t.Fatalf("server saw lines %q, want none", lines)
	}
}

// Streaming against a server without /v2 fails with that server's 404,
// even with a context that never ends. Such a server answers without
// reading the open-ended request body; the stream asks it to expect
// 100-continue, so Go's HTTP/1.1 server sends the 404 at once rather
// than holding it while it drains a body that never ends. Run with a
// short -timeout: a regression hangs.
func TestTrackStreamRequiresV2(t *testing.T) {
	url, paths := withoutV2(t)
	_, err := client.New(url).TrackStream(context.Background(), client.StreamOpen{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err %v, want the server's 404 as an *APIError", err)
	}
	if got := strings.Join(paths(), " "); got != "/v2/track/stream" {
		t.Fatalf("server saw %q, want /v2/track/stream", got)
	}
}
