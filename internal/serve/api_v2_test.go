package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"noble/internal/imu"
)

// v2SessionBody decodes a /v2 session body (or, embedded in
// v2StreamLine, a stream line), whose inline error is the structured
// object.
type v2SessionBody struct {
	SessionResponse
	Error *errorObject `json:"error"`
}

type v2StreamLine struct {
	Seq int `json:"seq"`
	v2SessionBody
}

// decodeEnvelope parses a /v2 structured error body.
func decodeEnvelope(t *testing.T, body []byte) errorObject {
	t.Helper()
	var env struct{ Error errorObject }
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body %q is not a /v2 error envelope: %v", body, err)
	}
	return env.Error
}

func TestV2ErrorEnvelope(t *testing.T) {
	s := newTestServer(t, 0)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   Code
	}{
		{"unknown model", "/v2/localize", `{"model":"nope","fingerprints":[[0.1]]}`, http.StatusNotFound, CodeModelNotFound},
		{"wrong kind", "/v2/localize", `{"model":"imu-test","fingerprints":[[0.1]]}`, http.StatusBadRequest, CodeWrongModelKind},
		{"bad body", "/v2/localize", `{not json`, http.StatusBadRequest, CodeBadBody},
		{"bad fingerprint", "/v2/localize", `{"model":"wifi-test","fingerprints":[[0.1]]}`, http.StatusBadRequest, CodeBadFingerprint},
		{"no paths", "/v2/track", `{"model":"imu-test","paths":[]}`, http.StatusBadRequest, CodeBadPath},
		{"missing model", "/v2/localize", `{"fingerprints":[[0.1]]}`, http.StatusBadRequest, CodeBadRequest},
		{"bad deadline body", "/v2/localize", `{"model":"wifi-test","fingerprints":[[0.1]],"deadline_ms":-5}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s.Handler(), tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.status, w.Body)
			}
			e := decodeEnvelope(t, w.Body.Bytes())
			if e.Code != tc.code {
				t.Fatalf("code %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
			if e.Message == "" {
				t.Fatal("envelope must carry a message")
			}
			if e.RequestID == "" || w.Header().Get("X-Request-Id") != e.RequestID {
				t.Fatalf("request id: body %q, header %q — must match and be non-empty",
					e.RequestID, w.Header().Get("X-Request-Id"))
			}
		})
	}

	// Malformed deadline header.
	req := httptest.NewRequest(http.MethodPost, "/v2/localize", strings.NewReader(`{"model":"wifi-test","fingerprints":[[0.1]]}`))
	req.Header.Set("X-Deadline-Ms", "soon")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || decodeEnvelope(t, w.Body.Bytes()).Code != CodeBadRequest {
		t.Fatalf("bad X-Deadline-Ms: %d %s", w.Code, w.Body)
	}
}

func TestV2LocalizeAndTrackHappyPath(t *testing.T) {
	s := newTestServer(t, 0)

	raw, _ := json.Marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features}})
	w := postJSON(t, s.Handler(), "/v2/localize", string(raw))
	if w.Code != http.StatusOK {
		t.Fatalf("localize: %d %s", w.Code, w.Body)
	}
	var lresp LocalizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &lresp); err != nil {
		t.Fatal(err)
	}
	if lresp.RequestID == "" || lresp.RequestID != w.Header().Get("X-Request-Id") {
		t.Fatalf("request id missing or mismatched: %+v", lresp)
	}
	want := wifiModel.Predict(wifiDS.Test[0].Features)
	if len(lresp.Results) != 1 || lresp.Results[0].X != want.Pos.X || lresp.Results[0].Class != want.Class {
		t.Fatalf("v2 result %+v != model %+v", lresp.Results, want)
	}

	p := imuDS.Test[0]
	rawT, _ := json.Marshal(TrackRequest{Model: "imu-test", Paths: []TrackPath{{
		Start: XY{X: p.Start.X, Y: p.Start.Y}, Features: p.Features,
	}}})
	w = postJSON(t, s.Handler(), "/v2/track", string(rawT))
	if w.Code != http.StatusOK {
		t.Fatalf("track: %d %s", w.Code, w.Body)
	}
	var tresp TrackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	wantT := imuModel.PredictPaths([]imu.Path{p})[0]
	if tresp.Results[0].End.X != wantT.End.X || tresp.Results[0].Class != wantT.Class {
		t.Fatalf("v2 track %+v != model %+v", tresp.Results[0], wantT)
	}
	if tresp.RequestID == "" {
		t.Fatal("track response must carry a request id")
	}

	// Distinct requests get distinct IDs.
	if lresp.RequestID == tresp.RequestID {
		t.Fatalf("request ids must be unique: %q", lresp.RequestID)
	}
}

func TestV2DeadlineExpiresInBatchQueue(t *testing.T) {
	// A request whose deadline runs out while it queues behind a running
	// pass must come back 504/deadline_exceeded, and its rows must be
	// dropped from the queue rather than spent in a forward pass. The
	// pass gate keeps request A's pass open so B cannot get aboard one.
	s := newTestServer(t, 20*time.Millisecond)
	g := gatePasses(s.engine.wifiBatcher)
	raw, _ := json.Marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features}})
	holdA := func() (release func()) {
		return holdPass(t, g, func() int { return postJSON(t, s.Handler(), "/v2/localize", string(raw)).Code })
	}

	release := holdA()
	req := httptest.NewRequest(http.MethodPost, "/v2/localize", bytes.NewReader(raw))
	req.Header.Set("X-Deadline-Ms", "15")
	w := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(w, req)
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("deadline not honored: request took %v", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body)
	}
	if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want deadline_exceeded", e.Code)
	}
	release()

	// The dispatcher drops the abandoned job at its next take.
	eventually(t, "the abandoned job's drop", func() bool { return s.metrics.BatchDropped("localize") != 0 })
	if d := s.metrics.BatchDropped("localize"); d != 1 {
		t.Fatalf("dropped rows %d, want 1", d)
	}
	if passes, rows := s.metrics.BatchStats("localize"); passes != 1 || rows != 1 {
		t.Fatalf("%d passes consumed %d rows, want only A's 1 and 1: the canceled request must not reach a pass", passes, rows)
	}

	// The body field works too (and the stricter of the two wins).
	release = holdA()
	raw2, _ := json.Marshal(map[string]any{
		"model": "wifi-test", "fingerprints": [][]float64{wifiDS.Test[0].Features}, "deadline_ms": 10,
	})
	w = postJSON(t, s.Handler(), "/v2/localize", string(raw2))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline_ms body field: status %d, want 504", w.Code)
	}
	release()
}

func TestV2SessionDeadlinePartialCommitIs504(t *testing.T) {
	// A deadline expiring while a segment waits in the track batcher
	// (here: behind a /v2/track pass the gate holds open) answers with
	// the error's own status (504), not a generic 500, and the body
	// still carries the session identity for the resend-the-tail
	// protocol.
	s := newTestServer(t, 20*time.Millisecond)
	g := gatePasses(s.engine.imuBatcher)
	release := holdPass(t, g, func() int { return postJSON(t, s.Handler(), "/v2/track", trackBody(imuDS.Test[0])).Code })

	seg := imuDS.Test[0].Features[:imuModel.SegmentDim()]
	raw, _ := json.Marshal(SessionSegmentsRequest{Model: "imu-test", Start: &XY{}, Features: seg})
	req := httptest.NewRequest(http.MethodPost, "/v2/sessions/dl504/segments", bytes.NewReader(raw))
	req.Header.Set("X-Deadline-Ms", "15")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	release()
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body)
	}
	var resp v2SessionBody
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Session != "dl504" || resp.Error == nil || resp.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("partial-commit body %s", w.Body)
	}
	eventually(t, "the abandoned segment's drop", func() bool { return s.metrics.BatchDropped("track") != 0 })
	if d := s.metrics.BatchDropped("track"); d != 1 {
		t.Fatalf("dropped rows %d, want 1", d)
	}
	if passes, rows := s.metrics.BatchStats("track"); passes != 1 || rows != 1 {
		t.Fatalf("%d passes consumed %d rows, want only the held request's 1 and 1", passes, rows)
	}
}

func TestV2SessionsLifecycle(t *testing.T) {
	s := newTestServer(t, 0)
	seg := imuDS.Test[0].Features[:imuModel.SegmentDim()]

	create, _ := json.Marshal(SessionSegmentsRequest{Model: "imu-test", Start: &XY{X: 1, Y: 2}})
	w := postJSON(t, s.Handler(), "/v2/sessions/v2dev/segments", string(create))
	if w.Code != http.StatusOK {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var resp v2SessionBody
	json.Unmarshal(w.Body.Bytes(), &resp)
	if !resp.Created || resp.RequestID == "" || resp.Session != "v2dev" {
		t.Fatalf("create response %+v", resp)
	}

	app, _ := json.Marshal(SessionSegmentsRequest{Features: seg})
	w = postJSON(t, s.Handler(), "/v2/sessions/v2dev/segments", string(app))
	if w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body)
	}
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Steps != 1 || len(resp.Results) != 1 {
		t.Fatalf("append response %+v", resp)
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v2/sessions/v2dev", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("get: %d %s", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v2/sessions/v2dev", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v2/sessions/v2dev", nil))
	if w.Code != http.StatusNotFound || decodeEnvelope(t, w.Body.Bytes()).Code != CodeSessionNotFound {
		t.Fatalf("get after delete: %d %s", w.Code, w.Body)
	}
}

// A stream request that expects 100-continue gets the go-ahead before
// the stream's 200: the SDK's transport sends the body only after it,
// and sends none at all once a 200 without it has ended the exchange.
func TestV2TrackStreamSendsGoAhead(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, 0).Handler())
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	io.WriteString(conn, "POST /v2/track/stream HTTP/1.1\r\nHost: noble\r\nExpect: 100-continue\r\n"+
		"Transfer-Encoding: chunked\r\nContent-Type: application/x-ndjson\r\n\r\n")
	br := bufio.NewReader(conn)
	line := func() string {
		l, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(l, "\r\n")
	}
	if got := line(); got != "HTTP/1.1 100 Continue" {
		t.Fatalf("first response line %q, want the go-ahead", got)
	}
	for line() != "" { // the go-ahead's header lines
	}
	if got := line(); got != "HTTP/1.1 200 OK" {
		t.Fatalf("after the go-ahead %q, want the stream's 200", got)
	}
}

func TestV2TrackStream(t *testing.T) {
	s := newTestServer(t, 0)
	segDim := imuModel.SegmentDim()
	seg := func(i int) []float64 { return imuDS.Test[i].Features[:segDim] }

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(streamOpen{SessionSegmentsRequest: SessionSegmentsRequest{
		Model: "imu-test", Start: &XY{X: 3, Y: 4},
	}})
	enc.Encode(SessionSegmentsRequest{Features: seg(0)})
	enc.Encode(SessionSegmentsRequest{Features: seg(1)})

	req := httptest.NewRequest(http.MethodPost, "/v2/track/stream", &buf)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var lines []v2StreamLine
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l v2StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("%d response lines for 3 input lines:\n%s", len(lines), w.Body)
	}
	for i, l := range lines {
		if l.Seq != i+1 {
			t.Fatalf("line %d has seq %d", i, l.Seq)
		}
		if l.Error != nil {
			t.Fatalf("line %d unexpected error %+v", i, l.Error)
		}
		if l.Steps != i {
			t.Fatalf("line %d reports %d steps, want %d", i, l.Steps, i)
		}
	}

	// The per-line estimates must match a stateful session fed the same
	// segments one request at a time.
	sessResp := func(id string, req SessionSegmentsRequest) SessionState {
		st, err := s.engine.AppendSegments(context.Background(), segmentQuery(id, &req))
		if err != nil {
			t.Fatalf("reference session: %v", err)
		}
		return st
	}
	sessResp("stream-ref", SessionSegmentsRequest{Model: "imu-test", Start: &XY{X: 3, Y: 4}})
	for i := 1; i <= 2; i++ {
		ref := sessResp("stream-ref", SessionSegmentsRequest{Features: seg(i - 1)})
		got := lines[i]
		if got.Position.X != ref.Position.X || got.Position.Y != ref.Position.Y || got.Class != ref.Class {
			t.Fatalf("stream line %d estimate (%v, class %d) != session reference (%v, class %d)",
				i, got.Position, got.Class, ref.Position, ref.Class)
		}
	}

	// The ephemeral stream session is gone; the named reference remains.
	if n := s.Sessions().Len(); n != 1 {
		t.Fatalf("%d live sessions after stream end, want 1 (the reference)", n)
	}
}

func TestV2TrackStreamNamedSessionPersists(t *testing.T) {
	s := newTestServer(t, 0)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(streamOpen{Session: "keeper", SessionSegmentsRequest: SessionSegmentsRequest{
		Model: "imu-test", Start: &XY{},
	}})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/track/stream", &buf))
	if w.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", w.Code, w.Body)
	}
	if _, ok := s.Sessions().Get("keeper"); !ok {
		t.Fatal("named stream session must survive the connection")
	}
}

func TestV2TrackStreamErrorLine(t *testing.T) {
	s := newTestServer(t, 0)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(streamOpen{SessionSegmentsRequest: SessionSegmentsRequest{Model: "nope", Start: &XY{}}})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/track/stream", &buf))
	var l v2StreamLine
	if err := json.Unmarshal(bytes.TrimSpace(w.Body.Bytes()), &l); err != nil {
		t.Fatalf("bad error line %q: %v", w.Body, err)
	}
	if l.Seq != 1 || l.Error == nil || l.Error.Code != CodeModelNotFound {
		t.Fatalf("error line %+v", l)
	}
}

func TestDrainRejectsNewCompletesInflight(t *testing.T) {
	// In-flight batched requests complete during a drain; new requests
	// get 503 with the structured envelope.
	s := newTestServer(t, 60*time.Millisecond)
	raw, _ := json.Marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features}})

	var wg sync.WaitGroup
	inflight := httptest.NewRecorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Handler().ServeHTTP(inflight, httptest.NewRequest(http.MethodPost, "/v2/localize", bytes.NewReader(raw)))
	}()
	time.Sleep(15 * time.Millisecond) // let it enter the batch queue
	s.StartDraining()

	// New work on every inference endpoint: 503 + envelope.
	for _, ep := range []string{"/v2/localize", "/v2/track", "/v2/track/stream", "/v2/sessions/d/segments"} {
		w := postJSON(t, s.Handler(), ep, string(raw))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: status %d, want 503 (body %s)", ep, w.Code, w.Body)
		}
		if e := decodeEnvelope(t, w.Body.Bytes()); e.Code != CodeDraining {
			t.Fatalf("%s during drain: code %q, want server_draining", ep, e.Code)
		}
	}

	wg.Wait()
	if inflight.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200 (body %s)", inflight.Code, inflight.Body)
	}

	// Health still answers and reports the drain.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v2/health", nil))
	var h healthResponse
	json.Unmarshal(w.Body.Bytes(), &h)
	if w.Code != http.StatusOK || !h.Draining || h.Status != "draining" {
		t.Fatalf("health during drain: %d %+v", w.Code, h)
	}
}

// TestGracefulDrainOverHTTP drives a real http.Server through the full
// noble-serve shutdown sequence: StartDraining, then Shutdown — the
// in-flight batched request completes, the late request is refused.
func TestGracefulDrainOverHTTP(t *testing.T) {
	s := newTestServer(t, 60*time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw, _ := json.Marshal(LocalizeRequest{Model: "wifi-test", Fingerprints: [][]float64{wifiDS.Test[0].Features}})

	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/localize", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()
	time.Sleep(15 * time.Millisecond)

	s.StartDraining()
	resp, err := http.Post(ts.URL+"/v2/localize", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("late request: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("late request: status %d, want 503 (%s)", resp.StatusCode, buf.Bytes())
	}
	if e := decodeEnvelope(t, buf.Bytes()); e.Code != CodeDraining {
		t.Fatalf("late request code %q", e.Code)
	}

	// Shutdown must wait for (and deliver) the batched in-flight answer.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-inflight
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request across shutdown: status %d err %v (%s)", r.status, r.err, r.body)
	}
	var lr LocalizeResponse
	if err := json.Unmarshal(r.body, &lr); err != nil || len(lr.Results) != 1 {
		t.Fatalf("in-flight body %s: %v", r.body, err)
	}
}
