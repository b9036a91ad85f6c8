package serve

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The golden tests pin the wire protocol byte-for-byte: every
// request/response shape (localize, track, sessions, models, health,
// errors, deadlines, the partial-commit error object, the NDJSON
// stream) is recorded under testdata/golden as v2_*.golden, and any
// refactor of the serving internals must reproduce the exact same
// bytes, with the per-process request ID and the wall-clock values
// normalised. Regenerate with:
//
//	go test ./internal/serve -run TestGolden -update-golden
//
// The fixture models are seeded and the numerics are bit-identical
// across GEMM paths (DESIGN §2), so recorded prediction bytes are
// stable.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from current responses")

// goldenCase is one pinned exchange. Cases run in order against one
// server so the session cases can build on each other deterministically.
type goldenCase struct {
	name   string
	method string
	path   string
	body   string // empty for GET/DELETE
	// header holds extra request headers (the deadline header).
	header map[string]string
	// ctx, when set, replaces the request context — a pre-expired or
	// pre-cancelled one makes the deadline and cancel shapes
	// deterministic (the unbatched golden server checks the context
	// before it runs the pass).
	ctx func() (context.Context, context.CancelFunc)
	// drain flips the server into drain mode before the exchange.
	// Draining is one-way, so such cases come last.
	drain bool
}

// expired and cancelled are goldenCase.ctx values.
func expired() (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), time.Unix(0, 0))
}

func cancelled() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx, cancel
}

// goldenJSON marshals a request body.
func goldenJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	fixtures(t)

	marshal := func(v any) string { return goldenJSON(t, v) }
	// Deterministic payloads from the seeded fixture datasets.
	fp := func(i int) []float64 { return wifiDS.Test[i].Features }
	localizeOK := marshal(LocalizeRequest{
		Model:        "wifi-test",
		Fingerprints: [][]float64{fp(0), fp(1), fp(2), fp(3)},
	})
	tooMany := LocalizeRequest{Model: "wifi-test"}
	for i := 0; i <= maxFingerprints; i++ {
		tooMany.Fingerprints = append(tooMany.Fingerprints, fp(0))
	}
	trackOK := TrackRequest{Model: "imu-test"}
	for _, p := range imuDS.Test[:3] {
		trackOK.Paths = append(trackOK.Paths, TrackPath{
			Start:    XY{X: p.Start.X, Y: p.Start.Y},
			Features: p.Features,
		})
	}
	seg := imuDS.Test[0].Features[:imuModel.SegmentDim()]
	segDim := imuModel.SegmentDim()
	scan := wifiDS.Test[4].Features

	return []goldenCase{
		// Localize: success and every error shape.
		{name: "localize_ok", method: "POST", path: "/v2/localize", body: localizeOK},
		{name: "localize_bad_json", method: "POST", path: "/v2/localize", body: `{not json`},
		{name: "localize_trailing_garbage", method: "POST", path: "/v2/localize", body: `{"model":"wifi-test","fingerprints":[]} extra`},
		{name: "localize_missing_model", method: "POST", path: "/v2/localize", body: `{"fingerprints":[[0.1]]}`},
		{name: "localize_unknown_model", method: "POST", path: "/v2/localize", body: `{"model":"nope","fingerprints":[[0.1]]}`},
		{name: "localize_wrong_kind", method: "POST", path: "/v2/localize", body: `{"model":"imu-test","fingerprints":[[0.1]]}`},
		{name: "localize_no_fingerprints", method: "POST", path: "/v2/localize", body: `{"model":"wifi-test","fingerprints":[]}`},
		{name: "localize_bad_dim", method: "POST", path: "/v2/localize", body: `{"model":"wifi-test","fingerprints":[[0.1,0.2]]}`},
		{name: "localize_too_many", method: "POST", path: "/v2/localize", body: marshal(tooMany)},

		// Track.
		{name: "track_ok", method: "POST", path: "/v2/track", body: marshal(trackOK)},
		{name: "track_no_paths", method: "POST", path: "/v2/track", body: `{"model":"imu-test","paths":[]}`},
		{name: "track_bad_features", method: "POST", path: "/v2/track", body: `{"model":"imu-test","paths":[{"start":{"x":0,"y":0},"features":[1,2,3]}]}`},
		{name: "track_unknown_model", method: "POST", path: "/v2/track", body: `{"model":"nope","paths":[{"start":{"x":0,"y":0},"features":[1]}]}`},

		// Sessions: create, append, fix, introspect, conflict, delete.
		{name: "session_create", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Model: "imu-test", Start: &XY{X: 12, Y: 24}, Window: 2,
		})},
		{name: "session_append", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Features: seg,
		})},
		{name: "session_fix", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Features: seg, WiFiModel: "wifi-test", Fingerprint: scan,
		})},
		{name: "session_get", method: "GET", path: "/v2/sessions/golden-dev"},
		{name: "session_model_conflict", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Model: "other-model",
		})},
		{name: "session_create_no_model", method: "POST", path: "/v2/sessions/golden-new/segments", body: marshal(SessionSegmentsRequest{
			Start: &XY{},
		})},
		{name: "session_create_no_origin", method: "POST", path: "/v2/sessions/golden-new/segments", body: marshal(SessionSegmentsRequest{
			Model: "imu-test", Features: seg,
		})},
		{name: "session_bad_multiple", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Features: seg[:segDim-1],
		})},
		{name: "session_fingerprint_no_model", method: "POST", path: "/v2/sessions/golden-dev/segments", body: marshal(SessionSegmentsRequest{
			Fingerprint: scan,
		})},
		{name: "session_delete", method: "DELETE", path: "/v2/sessions/golden-dev"},
		{name: "session_delete_missing", method: "DELETE", path: "/v2/sessions/golden-dev"},
		{name: "session_get_missing", method: "GET", path: "/v2/sessions/golden-dev"},

		// Listings.
		{name: "models", method: "GET", path: "/v2/models"},
	}
}

// goldenTailCases are the partial-commit response and the drain
// rejection. The drain case goes last.
func goldenTailCases(t *testing.T) []goldenCase {
	t.Helper()
	fixtures(t)
	seg := imuDS.Test[0].Features[:imuModel.SegmentDim()]
	create := goldenJSON(t, SessionSegmentsRequest{Model: "imu-test", Start: &XY{X: 12, Y: 24}, Features: seg})
	return []goldenCase{
		// The session is created, then its first step finds the deadline
		// gone: the committed prefix (none) rides along with the error.
		{name: "session_partial_commit", method: "POST", path: "/v2/sessions/golden-partial/segments", body: create, ctx: expired},
		{name: "draining", method: "POST", path: "/v2/localize", body: `{"model":"wifi-test","fingerprints":[[0.1]]}`, drain: true},
	}
}

// goldenV2Cases are goldenCases plus the deadline, body-limit,
// streaming and health shapes, then the tail cases.
func goldenV2Cases(t *testing.T) []goldenCase {
	t.Helper()
	cases := goldenCases(t)
	marshal := func(v any) string { return goldenJSON(t, v) }
	segDim := imuModel.SegmentDim()
	seg := imuDS.Test[0].Features[:segDim]
	localize := marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features}})
	track := marshal(TrackRequest{Model: "imu-test", Paths: []TrackPath{{Features: seg}}})
	deadline := func(v string) map[string]string { return map[string]string{"X-Deadline-Ms": v} }
	stream := func(lines ...string) string { return strings.Join(lines, "\n") + "\n" }
	open := marshal(streamOpen{SessionSegmentsRequest: SessionSegmentsRequest{Model: "imu-test", Start: &XY{X: 3, Y: 4}}})

	cases = append(cases, []goldenCase{
		// Deadlines: header, body field, both malformed, and expiry on
		// every inference operation.
		{name: "localize_deadline_header_ok", method: "POST", path: "/v2/localize", body: localize, header: deadline("60000")},
		{name: "localize_deadline_body_ok", method: "POST", path: "/v2/localize",
			body: `{"deadline_ms":60000,` + strings.TrimPrefix(localize, "{")},
		{name: "localize_deadline_header_bad", method: "POST", path: "/v2/localize", body: localize, header: deadline("soon")},
		{name: "localize_deadline_header_negative", method: "POST", path: "/v2/localize", body: localize, header: deadline("-1")},
		{name: "localize_deadline_body_bad", method: "POST", path: "/v2/localize",
			body: `{"model":"wifi-test","fingerprints":[[0.1]],"deadline_ms":-5}`},
		{name: "localize_deadline_exceeded", method: "POST", path: "/v2/localize", body: localize, ctx: expired},
		{name: "localize_canceled", method: "POST", path: "/v2/localize", body: localize, ctx: cancelled},
		{name: "track_deadline_body_bad", method: "POST", path: "/v2/track",
			body: `{"deadline_ms":-5,` + strings.TrimPrefix(track, "{")},
		{name: "track_deadline_exceeded", method: "POST", path: "/v2/track", body: track, ctx: expired},
		{name: "session_deadline_header_bad", method: "POST", path: "/v2/sessions/golden-new/segments",
			body: marshal(SessionSegmentsRequest{Model: "imu-test", Start: &XY{}}), header: deadline("0")},

		// Body limits and the strict decoder on the non-localize path.
		{name: "localize_body_too_large", method: "POST", path: "/v2/localize", body: strings.Repeat(" ", maxBodyBytes+1)},
		{name: "track_body_too_large", method: "POST", path: "/v2/track", body: strings.Repeat(" ", maxBodyBytes+1)},
		{name: "track_bad_json", method: "POST", path: "/v2/track", body: `{not json`},
		{name: "track_trailing_garbage", method: "POST", path: "/v2/track", body: track + ` extra`},
		{name: "session_bad_json", method: "POST", path: "/v2/sessions/golden-new/segments", body: `{"model":`},

		// Streaming: a three-line exchange ending in an error line, a
		// named session, an unparseable line, and a refused open.
		{name: "stream_exchange", method: "POST", path: "/v2/track/stream", body: stream(
			open,
			marshal(SessionSegmentsRequest{Features: seg}),
			marshal(SessionSegmentsRequest{Features: seg[:segDim-1]}),
		)},
		{name: "stream_named", method: "POST", path: "/v2/track/stream", body: stream(
			marshal(streamOpen{Session: "golden-stream", SessionSegmentsRequest: SessionSegmentsRequest{
				Model: "imu-test", Start: &XY{X: 3, Y: 4}, Features: seg,
			}}),
		)},
		{name: "stream_named_get", method: "GET", path: "/v2/sessions/golden-stream"},
		{name: "stream_bad_line", method: "POST", path: "/v2/track/stream", body: stream(open, `{not json`)},
		{name: "stream_unknown_model", method: "POST", path: "/v2/track/stream", body: stream(
			marshal(streamOpen{SessionSegmentsRequest: SessionSegmentsRequest{Model: "nope", Start: &XY{}}}),
		)},
		{name: "stream_deadline_header_bad", method: "POST", path: "/v2/track/stream", body: stream(open), header: deadline("soon")},
		{name: "stream_deadline_exceeded", method: "POST", path: "/v2/track/stream", body: stream(
			open, marshal(SessionSegmentsRequest{Features: seg}),
		), ctx: expired},

		{name: "health", method: "GET", path: "/v2/health"},
	}...)
	cases = append(cases, goldenTailCases(t)...)
	return append(cases,
		goldenCase{name: "stream_draining", method: "POST", path: "/v2/track/stream", body: stream(open)},
		goldenCase{name: "health_draining", method: "GET", path: "/v2/health"},
	)
}

// newGoldenServer is newTestServer with pinned LoadedAt stamps so the
// /v2/models bytes are reproducible.
func newGoldenServer(t *testing.T) *Server {
	t.Helper()
	fixtures(t)
	loaded := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel, LoadedAt: loaded})
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel, LoadedAt: loaded})
	return New(Config{Registry: reg, BatchWindow: 0, MaxBatch: 64})
}

// TestGoldenV1 plays every request the removed /v1 dialect had a golden
// file for, under its old /v1 path, and pins the one answer each now
// gets: the mux's plain 404.
func TestGoldenV1(t *testing.T) {
	cases := goldenCases(t)
	cases = append(cases, goldenCase{
		name: "localize_deadline_ignored", method: "POST", path: "/v2/localize",
		body:   `{"model":"wifi-test","fingerprints":[[0.1]],"deadline_ms":-5}`,
		header: map[string]string{"X-Deadline-Ms": "soon"},
	})
	s := newGoldenServer(t)
	for _, tc := range append(cases, goldenTailCases(t)...) {
		t.Run(tc.name, func(t *testing.T) {
			if tc.drain {
				s.StartDraining()
			}
			assertV1Gone(t, s.Handler(), goldenRequest(tc))
		})
	}
}

// goldenRequest builds a case's request (without its context).
func goldenRequest(tc goldenCase) *http.Request {
	var req *http.Request
	if tc.body != "" {
		req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(tc.method, tc.path, nil)
	}
	for k, v := range tc.header {
		req.Header.Set(k, v)
	}
	return req
}

// goldenVolatile matches the wall-clock and timing values in a pinned
// body (health uptime; the /v2 models lifecycle block), each rewritten
// to its key with a zero value.
var goldenVolatile = regexp.MustCompile(`"(uptime_seconds|p99_pass_ms|since)":("[^"]*"|[0-9.e+-]+)`)

// TestGoldenV2 plays goldenV2Cases in order against one fresh server
// and compares each exchange with testdata/golden/v2_<name>.golden:
// status and content type, the X-Request-Id and Retry-After headers,
// then the body. The server-assigned request ID (unique per process) is
// rewritten to REQ wherever it appears.
func TestGoldenV2(t *testing.T) {
	cases := goldenV2Cases(t)
	s := newGoldenServer(t)
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run("v2_"+tc.name, func(t *testing.T) {
			if tc.drain {
				s.StartDraining()
			}
			req := goldenRequest(tc)
			if tc.ctx != nil {
				ctx, cancel := tc.ctx()
				defer cancel()
				req = req.WithContext(ctx)
			}
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)

			got := fmt.Sprintf("%d %s\n", w.Code, w.Header().Get("Content-Type"))
			for _, h := range []string{"X-Request-Id", "Retry-After"} {
				if v := w.Header().Get(h); v != "" {
					got += h + ": " + v + "\n"
				}
			}
			got += w.Body.String()
			if id := w.Header().Get("X-Request-Id"); id != "" {
				got = strings.ReplaceAll(got, id, "REQ")
			}
			got = goldenVolatile.ReplaceAllString(got, `"$1":0`)
			file := filepath.Join(dir, "v2_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("wire bytes changed.\n--- golden:\n%s\n--- got:\n%s", want, got)
			}
		})
	}
}
