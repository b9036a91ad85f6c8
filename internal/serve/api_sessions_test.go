package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"noble/internal/imu"
)

// TestBodySizeAndDecodeErrors pins the 400-vs-413 contract on every
// JSON endpoint: only an oversized body is 413; malformed JSON and
// trailing garbage are the client's 400.
func TestBodySizeAndDecodeErrors(t *testing.T) {
	s := newTestServer(t, 0)
	oversized := `{"pad":"` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	endpoints := []string{"/v2/localize", "/v2/track", "/v2/sessions/dev-err/segments"}
	cases := []struct {
		name string
		body string
		want int
		code Code
	}{
		{"bad json", `{not json`, http.StatusBadRequest, CodeBadBody},
		{"wrong top-level type", `[1,2,3]`, http.StatusBadRequest, CodeBadBody},
		{"trailing garbage", `{"model":"imu-test"} extra`, http.StatusBadRequest, CodeBadBody},
		{"oversized body", oversized, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, ep := range endpoints {
		for _, tc := range cases {
			w := postJSON(t, s.Handler(), ep, tc.body)
			if w.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d (body %.120s)", ep, tc.name, w.Code, tc.want, w.Body)
			} else if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != tc.code {
				t.Errorf("%s %s: code %q, want %q", ep, tc.name, e.Code, tc.code)
			}
		}
	}
}

// postSession is a typed helper for the session endpoint.
func postSession(t *testing.T, s *Server, id string, req SessionSegmentsRequest) (*httptest.ResponseRecorder, SessionResponse) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s.Handler(), "/v2/sessions/"+id+"/segments", string(raw))
	var resp SessionResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding session response: %v (%s)", err, w.Body)
		}
	}
	return w, resp
}

func TestSessionValidation(t *testing.T) {
	s := newTestServer(t, 0)
	seg := make([]float64, imuModel.SegmentDim())
	cases := []struct {
		name string
		id   string
		req  SessionSegmentsRequest
		want int
		code Code
	}{
		{"create without model", "v0", SessionSegmentsRequest{Start: &XY{}, Features: seg}, http.StatusBadRequest, CodeBadRequest},
		{"create with unknown model", "v1", SessionSegmentsRequest{Model: "nope", Start: &XY{}}, http.StatusNotFound, CodeModelNotFound},
		{"create with wifi model", "v2", SessionSegmentsRequest{Model: "wifi-test", Start: &XY{}}, http.StatusBadRequest, CodeWrongModelKind},
		{"create without origin", "v3", SessionSegmentsRequest{Model: "imu-test", Features: seg}, http.StatusBadRequest, CodeBadRequest},
		{"wifi_model without fingerprint", "v4", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}, WiFiModel: "wifi-test"}, http.StatusBadRequest, CodeBadRequest},
		{"fingerprint without wifi_model", "v5", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}, Fingerprint: []float64{0.1}}, http.StatusBadRequest, CodeBadRequest},
		{"fingerprint with wrong dim", "v6", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}, WiFiModel: "wifi-test", Fingerprint: []float64{0.1}}, http.StatusBadRequest, CodeBadFingerprint},
		{"features not a segment multiple", "v7", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}, Features: seg[:len(seg)-1]}, http.StatusBadRequest, CodeBadSegment},
		{"too many segments", "v8", SessionSegmentsRequest{Model: "imu-test", Start: &XY{},
			Features: make([]float64, (maxSegmentsPerRequest+1)*imuModel.SegmentDim())}, http.StatusBadRequest, CodeBadSegment},
	}
	for _, tc := range cases {
		if w, _ := postSession(t, s, tc.id, tc.req); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.want, w.Body)
		} else if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
	}

	// Model mismatch against an existing session is a conflict.
	if w, _ := postSession(t, s, "bound", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}}); w.Code != http.StatusOK {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if w, _ := postSession(t, s, "bound", SessionSegmentsRequest{Model: "other-model"}); w.Code != http.StatusConflict {
		t.Errorf("model mismatch: status %d, want 409", w.Code)
	} else if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeSessionConflict {
		t.Errorf("model mismatch: code %q, want session_conflict", e.Code)
	}

	// A 400 must leave the session untouched: a valid fingerprint
	// riding on rejected features must NOT re-anchor the trajectory.
	if w, _ := postSession(t, s, "bound", SessionSegmentsRequest{
		WiFiModel:   "wifi-test",
		Fingerprint: wifiDS.Test[0].Features,
		Features:    seg[:len(seg)-1],
	}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad features with fix: status %d, want 400", w.Code)
	}
	g := httptest.NewRecorder()
	s.Handler().ServeHTTP(g, httptest.NewRequest(http.MethodGet, "/v2/sessions/bound", nil))
	var state SessionResponse
	if err := json.Unmarshal(g.Body.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	if state.Position != (XY{}) || state.Steps != 0 {
		t.Fatalf("rejected request mutated the session: %+v", state)
	}

	// A rejected create must not leave a session behind either.
	if w, _ := postSession(t, s, "v9", SessionSegmentsRequest{
		Model: "imu-test", Start: &XY{}, Features: seg[:len(seg)-1],
	}); w.Code != http.StatusBadRequest {
		t.Fatalf("create with bad features: status %d, want 400", w.Code)
	}
	g = httptest.NewRecorder()
	s.Handler().ServeHTTP(g, httptest.NewRequest(http.MethodGet, "/v2/sessions/v9", nil))
	if g.Code != http.StatusNotFound {
		t.Fatalf("rejected create left a session behind: GET status %d", g.Code)
	}
}

// TestSessionTrackingMatchesPathTracker drives a session over HTTP and
// mirrors it with a local core.PathTracker: every step must be
// bit-identical, and a WiFi fix must re-anchor the trajectory to the
// localize path's answer.
func TestSessionTrackingMatchesPathTracker(t *testing.T) {
	s := newTestServer(t, 0)
	var p imu.Path
	for _, cand := range imuDS.Test {
		if cand.NumSegments >= 3 {
			p = cand
			break
		}
	}
	if p.NumSegments < 3 {
		t.Fatal("fixture has no path with 3+ segments")
	}
	segDim := imuModel.SegmentDim()
	mirror := imuModel.NewPathTracker(p.Start, defaultSessionWindow)

	w, resp := postSession(t, s, "dev-a", SessionSegmentsRequest{
		Model: "imu-test",
		Start: &XY{X: p.Start.X, Y: p.Start.Y},
	})
	if w.Code != http.StatusOK || !resp.Created || resp.Steps != 0 {
		t.Fatalf("create: %d %+v (%s)", w.Code, resp, w.Body)
	}

	for step := 0; step < 3; step++ {
		seg := p.Features[step*segDim : (step+1)*segDim]
		w, resp := postSession(t, s, "dev-a", SessionSegmentsRequest{Features: seg})
		if w.Code != http.StatusOK {
			t.Fatalf("step %d: %d %s", step, w.Code, w.Body)
		}
		path, err := mirror.Step(seg)
		if err != nil {
			t.Fatal(err)
		}
		want := imuModel.PredictPaths([]imu.Path{path})[0]
		mirror.Commit(seg, want)
		if len(resp.Results) != 1 {
			t.Fatalf("step %d: %d results", step, len(resp.Results))
		}
		got := resp.Results[0]
		if got.End.X != want.End.X || got.End.Y != want.End.Y || got.Class != want.Class ||
			got.Displacement.X != want.Displacement.X || got.Displacement.Y != want.Displacement.Y {
			t.Fatalf("step %d: session %+v, direct %+v", step, got, want)
		}
		if got.Step != step+1 || resp.Steps != step+1 {
			t.Fatalf("step %d: counted as %d/%d", step, got.Step, resp.Steps)
		}
		if resp.Position != got.End {
			t.Fatalf("step %d: position %+v != end %+v", step, resp.Position, got.End)
		}
	}

	// GET reflects the same state.
	g := httptest.NewRecorder()
	s.Handler().ServeHTTP(g, httptest.NewRequest(http.MethodGet, "/v2/sessions/dev-a", nil))
	var got SessionResponse
	if g.Code != http.StatusOK || json.Unmarshal(g.Body.Bytes(), &got) != nil {
		t.Fatalf("GET session: %d %s", g.Code, g.Body)
	}
	est := mirror.Estimate()
	if got.Steps != 3 || got.Position.X != est.End.X || got.Position.Y != est.End.Y {
		t.Fatalf("GET state %+v, tracker estimate %+v", got, est)
	}

	// A WiFi fix re-anchors: the estimate must jump to exactly what the
	// localize path answers for that fingerprint, shifting the end
	// estimate away from dead reckoning, and travel restarts from it.
	before := got.Position
	fp := wifiDS.Test[0].Features
	fix := wifiModel.Predict(fp)
	w, resp = postSession(t, s, "dev-a", SessionSegmentsRequest{
		WiFiModel: "wifi-test", Fingerprint: fp,
	})
	if w.Code != http.StatusOK || !resp.ReAnchored || resp.Anchor == nil {
		t.Fatalf("fix: %d %+v (%s)", w.Code, resp, w.Body)
	}
	if resp.Position.X != fix.Pos.X || resp.Position.Y != fix.Pos.Y {
		t.Fatalf("fixed position %+v, localize says %+v", resp.Position, fix.Pos)
	}
	if resp.Position == before {
		t.Fatal("the fix did not shift the end estimate")
	}
	if resp.Traveled.X != 0 || resp.Traveled.Y != 0 {
		t.Fatalf("travel after fix %+v, want zero", resp.Traveled)
	}
	mirror.ReAnchor(fix.Pos)

	// The next step dead-reckons from the fix — still bit-identical.
	seg := p.Features[:segDim]
	w, resp = postSession(t, s, "dev-a", SessionSegmentsRequest{Features: seg})
	if w.Code != http.StatusOK {
		t.Fatalf("post-fix step: %d %s", w.Code, w.Body)
	}
	path, _ := mirror.Step(seg)
	if path.Start != fix.Pos || path.NumSegments != 1 {
		t.Fatalf("mirror path after fix %+v", path)
	}
	want := imuModel.PredictPaths([]imu.Path{path})[0]
	if resp.Results[0].End.X != want.End.X || resp.Results[0].Class != want.Class {
		t.Fatalf("post-fix step: session %+v, direct %+v", resp.Results[0], want)
	}

	// Delete ends the session.
	d := httptest.NewRecorder()
	s.Handler().ServeHTTP(d, httptest.NewRequest(http.MethodDelete, "/v2/sessions/dev-a", nil))
	if d.Code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", d.Code, d.Body)
	}
	g = httptest.NewRecorder()
	s.Handler().ServeHTTP(g, httptest.NewRequest(http.MethodGet, "/v2/sessions/dev-a", nil))
	if g.Code != http.StatusNotFound {
		t.Fatalf("GET after delete: %d", g.Code)
	}
}

// TestBatchedSessionStepsMatchUnbatched is the tentpole's equivalence
// claim: concurrent session steps coalesce through the track batcher
// into shared PredictPaths passes while every device receives exactly
// the prediction it would have computed alone.
func TestBatchedSessionStepsMatchUnbatched(t *testing.T) {
	s := newTestServer(t, 5*time.Millisecond)
	g := gatePasses(s.engine.imuBatcher)
	const n = 16
	paths := imuDS.Test
	if len(paths) < n {
		t.Fatalf("fixture too small: %d test paths", len(paths))
	}
	segDim := imuModel.SegmentDim()

	// Create sessions sequentially (cheap), then fire all first steps
	// concurrently behind a /v2/track pass the gate holds open, so they
	// meet in the batcher's queue whatever the scheduler does.
	for i := 0; i < n; i++ {
		w, _ := postSession(t, s, fmt.Sprintf("dev-%d", i), SessionSegmentsRequest{
			Model: "imu-test",
			Start: &XY{X: paths[i].Start.X, Y: paths[i].Start.Y},
		})
		if w.Code != http.StatusOK {
			t.Fatalf("create %d: %d %s", i, w.Code, w.Body)
		}
	}
	var wg sync.WaitGroup
	results := make([]SessionResponse, n)
	codes := make([]int, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(SessionSegmentsRequest{Features: paths[i].Features[:segDim]})
			<-start
			w := postJSON(t, s.Handler(), fmt.Sprintf("/v2/sessions/dev-%d/segments", i), string(raw))
			codes[i] = w.Code
			json.Unmarshal(w.Body.Bytes(), &results[i])
		}(i)
	}
	release := holdPass(t, g, func() int { return postJSON(t, s.Handler(), "/v2/track", trackBody(paths[0])).Code })
	close(start)
	rideOnePass(t, g, s.engine.imuBatcher, "imu-test", n, release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("device %d: status %d", i, codes[i])
		}
		want := imuModel.PredictPaths([]imu.Path{{
			Start:       paths[i].Start,
			NumSegments: 1,
			Features:    paths[i].Features[:segDim],
		}})[0]
		got := results[i].Results[0]
		if got.End.X != want.End.X || got.End.Y != want.End.Y || got.Class != want.Class {
			t.Fatalf("device %d: batched step %+v != direct %+v", i, got, want)
		}
	}
	// The held request's pass plus exactly one for the n steps.
	if passes, rows := s.metrics.BatchStats("track"); passes != 2 || rows != n+1 {
		t.Fatalf("track batcher ran %d passes over %d rows, want 2 over %d", passes, rows, n+1)
	}
}

// trackBody is a one-path /v2/track request for the imu-test model.
func trackBody(p imu.Path) string {
	raw, _ := json.Marshal(TrackRequest{Model: "imu-test", Paths: []TrackPath{{
		Start:    XY{X: p.Start.X, Y: p.Start.Y},
		Features: p.Features,
	}}})
	return string(raw)
}

// TestBatchedTrackMatchesUnbatched covers the same property for the
// stateless /v2/track endpoint, which now rides the track batcher too.
func TestBatchedTrackMatchesUnbatched(t *testing.T) {
	s := newTestServer(t, 5*time.Millisecond)
	g := gatePasses(s.engine.imuBatcher)
	const n = 12
	paths := imuDS.Test
	if len(paths) < n {
		t.Fatalf("fixture too small: %d test paths", len(paths))
	}
	var wg sync.WaitGroup
	results := make([]TrackResult, n)
	codes := make([]int, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw := trackBody(paths[i])
			<-start
			w := postJSON(t, s.Handler(), "/v2/track", raw)
			codes[i] = w.Code
			var resp TrackResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err == nil && len(resp.Results) == 1 {
				results[i] = resp.Results[0]
			}
		}(i)
	}
	release := holdPass(t, g, func() int { return postJSON(t, s.Handler(), "/v2/track", trackBody(paths[0])).Code })
	close(start)
	rideOnePass(t, g, s.engine.imuBatcher, "imu-test", n, release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		want := imuModel.PredictPaths([]imu.Path{paths[i]})[0]
		if results[i].End.X != want.End.X || results[i].End.Y != want.End.Y || results[i].Class != want.Class {
			t.Fatalf("request %d: batched %+v != direct %+v", i, results[i], want)
		}
	}
	if passes, rows := s.metrics.BatchStats("track"); passes != 2 || rows != n+1 {
		t.Fatalf("track batcher ran %d passes over %d rows, want 2 over %d", passes, rows, n+1)
	}
}

// TestSessionEvictionAndMetrics checks TTL eviction through the store
// the server owns, and the session series on /metrics.
func TestSessionEvictionAndMetrics(t *testing.T) {
	fixtures(t)
	reg := NewRegistry("", t.Logf)
	reg.Add(&Model{Name: "imu-test", Kind: KindIMU, IMU: imuModel})
	reg.Add(&Model{Name: "wifi-test", Kind: KindWiFi, WiFi: wifiModel})
	s := New(Config{Registry: reg, SessionTTL: time.Minute})

	if w, _ := postSession(t, s, "ttl-dev", SessionSegmentsRequest{Model: "imu-test", Start: &XY{}}); w.Code != http.StatusOK {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	if n := s.Sessions().Sweep(time.Now()); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	sess, _ := s.Sessions().Get("ttl-dev")
	sess.Touch(time.Now().Add(-2 * time.Minute))
	if n := s.Sessions().Sweep(time.Now()); n != 1 {
		t.Fatalf("idle session not evicted (%d)", n)
	}
	g := httptest.NewRecorder()
	s.Handler().ServeHTTP(g, httptest.NewRequest(http.MethodGet, "/v2/sessions/ttl-dev", nil))
	if g.Code != http.StatusNotFound {
		t.Fatalf("GET after eviction: %d", g.Code)
	}

	m := httptest.NewRecorder()
	s.Handler().ServeHTTP(m, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := m.Body.String()
	for _, want := range []string{
		"noble_sessions_active 0",
		`noble_sessions_total{event="created"} 1`,
		`noble_sessions_total{event="evicted"} 1`,
		"noble_session_steps_total",
		"noble_session_reanchors_total",
		`noble_batch_size_count{kind="track"}`,
		`noble_batch_size_count{kind="localize"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}
