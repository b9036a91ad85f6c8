package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"noble/internal/geo"
	"noble/internal/obs"
)

// This file is the HTTP adapter: one table of operations over the
// Engine, mounted under /v2. An operation decodes its request, calls the
// Engine and encodes the typed result; golden files pin the bytes. All
// validation and inference logic lives in the Engine.

// LocalizeRequest is the POST /v2/localize body: one or more
// normalized fingerprints (values in [0,1], as produced by
// radio.Normalize) for one named Wi-Fi model, plus an optional
// per-request deadline. A typical device sends
// exactly one fingerprint; the server's micro-batcher coalesces across
// devices.
type LocalizeRequest struct {
	Model        string      `json:"model"`
	Fingerprints [][]float64 `json:"fingerprints"`
	DeadlineMs   int64       `json:"deadline_ms,omitempty"`
}

// Position is a decoded localization result.
type Position struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Class    int     `json:"class"`
	Building int     `json:"building"`
	Floor    int     `json:"floor"`
}

// LocalizeResponse answers localize in request order.
type LocalizeResponse struct {
	RequestID string     `json:"request_id,omitempty"`
	Model     string     `json:"model"`
	Results   []Position `json:"results"`
}

// TrackPath is one IMU path to decode: the anchor position plus the
// concatenated per-segment features (a multiple of the model's
// segment_dim, at most max_segments segments).
type TrackPath struct {
	Start    XY        `json:"start"`
	Features []float64 `json:"features"`
}

// XY is a planar point.
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func xy(p geo.Point) XY { return XY{X: p.X, Y: p.Y} }

// TrackRequest is the POST /v2/track body.
type TrackRequest struct {
	Model      string      `json:"model"`
	Paths      []TrackPath `json:"paths"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

// TrackResult is one decoded path end.
type TrackResult struct {
	End          XY  `json:"end"`
	Class        int `json:"class"`
	Displacement XY  `json:"displacement"`
}

// TrackResponse answers track in request order.
type TrackResponse struct {
	RequestID string        `json:"request_id,omitempty"`
	Model     string        `json:"model"`
	Results   []TrackResult `json:"results"`
}

// modelsResponse answers the models listing. Its key order (like
// deleteResponse's) is the alphabetical one /v2 has always written.
type modelsResponse struct {
	Models    []ModelInfo `json:"models"`
	RequestID string      `json:"request_id,omitempty"`
}

// healthResponse answers /v2/health.
type healthResponse struct {
	RequestID     string `json:"request_id"`
	Status        string `json:"status"`
	Models        int    `json:"models"`
	Batching      bool   `json:"batching"`
	Sessions      int    `json:"sessions"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Draining      bool   `json:"draining,omitempty"`
}

// apiError is the free-text JSON error body of the debug and admin
// planes.
type apiError struct {
	Error string `json:"error"`
}

// errorObject is the structured error: machine-readable code, message,
// and the request ID it belongs to. As a failed request's whole body it
// is wrapped in an envelope, {"error":{...}}.
type errorObject struct {
	Code      Code   `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// Request limits: the serving port is open to fleets of devices, so a
// single request must not be able to exhaust server memory or smuggle an
// unbounded batch past MaxBatch.
const (
	maxBodyBytes       = 4 << 20 // 4 MiB
	maxFingerprints    = 256     // per localize request
	maxPathsPerRequest = 64      // per track request
)

// requestContext derives the per-request context from the stricter of
// the X-Deadline-Ms header and the body's deadline_ms field (either may
// be absent), and rejects a malformed one rather than ignoring it — a
// device that thinks it set a deadline must not wait forever.
func requestContext(r *http.Request, bodyMs int64) (context.Context, context.CancelFunc, *Error) {
	ms := int64(0)
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			return nil, nil, errf(CodeBadRequest, http.StatusBadRequest,
				"invalid X-Deadline-Ms %q: want a positive integer of milliseconds", h)
		}
		ms = v
	}
	if bodyMs < 0 {
		return nil, nil, errf(CodeBadRequest, http.StatusBadRequest,
			"invalid deadline_ms %d: want a positive integer of milliseconds", bodyMs)
	}
	if bodyMs > 0 && (ms == 0 || bodyMs < ms) {
		ms = bodyMs
	}
	if ms == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// operation is one row of the serving surface: where it is mounted, the
// endpoint label its requests are counted and traced under, and the
// handler, written once against the Engine.
type operation struct {
	method, path string
	metric       string // endpoint label
	gated        bool   // new inference work: refused while the server drains
	longLived    bool   // one connection carries many exchanges, each traced on its own
	handle       func(*exchange)
}

// operations is the whole /v2 surface.
var operations = []operation{
	{method: "POST", path: "/v2/localize", metric: "v2_localize", gated: true, handle: opLocalize},
	{method: "POST", path: "/v2/track", metric: "v2_track", gated: true, handle: opTrack},
	{method: "POST", path: "/v2/track/stream", metric: "v2_track_stream", gated: true, longLived: true, handle: opTrackStream},
	{method: "POST", path: "/v2/sessions/{id}/segments", metric: "v2_sessions", gated: true, handle: opSessionAppend},
	{method: "GET", path: "/v2/sessions/{id}", metric: "v2_sessions_get", handle: opSessionGet},
	{method: "DELETE", path: "/v2/sessions/{id}", metric: "v2_sessions_delete", handle: opSessionDelete},
	{method: "GET", path: "/v2/models", metric: "v2_models", handle: opModels},
	{method: "GET", path: "/v2/health", metric: "v2_health", handle: opHealth},
}

// routes installs all handlers on the server mux.
func (s *Server) routes() {
	for _, o := range operations {
		s.mount(o)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// /debug: the introspection plane. Traces and runtime are cheap JSON
	// reads; the full pprof family additionally lives on the opt-in
	// admin mux (see DebugHandler).
	s.mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("GET /debug/runtime", s.handleDebugRuntime)
	s.mux.HandleFunc("GET /debug/lifecycle", s.handleDebugLifecycle)
	s.mux.HandleFunc("GET /debug/retrain", s.handleDebugRetrain)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
}

// mount installs one operation, wrapped with what every row shares:
// request counting and latency, the request trace (honoring a
// client-supplied X-Trace-Id, echoed back on the response) whose spans
// the operation, the batcher and the journal glue fill in, the request
// ID, and the drain gate.
func (s *Server) mount(o operation) {
	s.mux.HandleFunc(o.method+" "+o.path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		if t := s.engine.Tracer(); t != nil {
			ctx, tr := t.Start(r.Context(), o.metric, r.Header.Get("X-Trace-Id"))
			w.Header().Set("X-Trace-Id", tr.ID())
			r = r.WithContext(ctx)
			// A long-lived connection is not a request: finishing its
			// trace would record the connection's lifetime as a "total".
			// The trace only names the connection; the operation starts
			// and finishes one per exchange (see opTrackStream).
			if !o.longLived {
				defer func() { tr.Finish(cw.code) }()
			}
		}
		reqID := s.engine.NextRequestID()
		cw.Header().Set("X-Request-Id", reqID)
		if o.gated && s.engine.Draining() {
			cw.Header().Set("Retry-After", "1")
			writeEnvelope(cw, reqID, errf(CodeDraining, http.StatusServiceUnavailable, "server is draining"))
		} else {
			obs.SetRequestID(r.Context(), reqID)
			o.handle(&exchange{s: s, w: cw, r: r, metric: o.metric, reqID: reqID})
		}
		s.metrics.Observe(o.metric, cw.code, time.Since(start))
	})
}

// codeWriter captures the status code written by a handler.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush (the NDJSON stream needs it through the wrapper).
func (w *codeWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// exchange is one request being answered: what an operation needs to
// decode, answer and fail it. The helpers open and
// close the decode and encode spans themselves, so no return path of an
// operation can leak one.
type exchange struct {
	s      *Server
	w      http.ResponseWriter
	r      *http.Request
	metric string // endpoint label, for the traces a long-lived operation starts
	reqID  string
}

// decode reads the size-capped JSON request body into v, rejecting
// trailing garbage, and answers the failure itself: an oversized body
// is 413, anything else malformed is 400. Localize, the production hot
// path, is read whole for the hand-rolled scanner (fastjson.go), with
// encoding/json as the behavior-defining fallback for everything the
// scanner does not recognize.
//
//vet:strictdecode-impl
func (x *exchange) decode(v any) bool {
	span := obs.Begin(x.r.Context(), obs.StageDecode)
	defer span.End()
	body := http.MaxBytesReader(x.w, x.r.Body, maxBodyBytes)
	if req, ok := v.(*LocalizeRequest); ok {
		data, err := io.ReadAll(body)
		if err != nil {
			x.fail(bodyError(err, "reading request: %v", err))
			return false
		}
		if parseLocalize(data, req) {
			return true
		}
		*req = LocalizeRequest{}
		if err := json.Unmarshal(data, req); err != nil {
			x.fail(errf(CodeBadBody, http.StatusBadRequest, "decoding request: %v", err))
			return false
		}
		return true
	}
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		x.fail(bodyError(err, "decoding request: %v", err))
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		x.fail(bodyError(err, "trailing data after JSON body"))
		return false
	}
	return true
}

// bodyError classifies a request-body read/decode failure: an oversized
// body keeps its 413, anything else is the client's malformed 400.
func bodyError(err error, format string, args ...any) *Error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return errf(CodeBodyTooLarge, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	}
	return errf(CodeBadBody, http.StatusBadRequest, format, args...)
}

// reply encodes v with the given status.
func (x *exchange) reply(status int, v any) {
	span := obs.Begin(x.r.Context(), obs.StageEncode)
	defer span.End()
	if resp, ok := v.(*LocalizeResponse); ok {
		x.w.Header().Set("Content-Type", "application/json")
		x.w.Write(appendLocalize(nil, resp))
		return
	}
	writeJSON(x.w, status, v)
}

// fail answers with an Engine (or adapter) error in the envelope.
func (x *exchange) fail(err error) { writeEnvelope(x.w, x.reqID, AsError(err)) }

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// fail writes a free-text JSON error body.
func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeEnvelope writes a structured error response.
func writeEnvelope(w http.ResponseWriter, reqID string, e *Error) {
	writeJSON(w, e.Status, map[string]errorObject{"error": {Code: e.Code, Message: e.Message, RequestID: reqID}})
}

func opLocalize(x *exchange) {
	var req LocalizeRequest
	if !x.decode(&req) {
		return
	}
	ctx, cancel, e := requestContext(x.r, req.DeadlineMs)
	if e != nil {
		x.fail(e)
		return
	}
	defer cancel()
	preds, err := x.s.engine.Localize(ctx, LocalizeQuery{Model: req.Model, Fingerprints: req.Fingerprints})
	if err != nil {
		x.fail(err)
		return
	}
	resp := LocalizeResponse{RequestID: x.reqID, Model: req.Model, Results: make([]Position, len(preds))}
	for i, p := range preds {
		resp.Results[i] = Position{X: p.Pos.X, Y: p.Pos.Y, Class: p.Class, Building: p.Building, Floor: p.Floor}
	}
	x.reply(http.StatusOK, &resp)
}

func opTrack(x *exchange) {
	var req TrackRequest
	if !x.decode(&req) {
		return
	}
	ctx, cancel, e := requestContext(x.r, req.DeadlineMs)
	if e != nil {
		x.fail(e)
		return
	}
	defer cancel()
	q := TrackQuery{Model: req.Model, Paths: make([]PathQuery, len(req.Paths))}
	for i, p := range req.Paths {
		q.Paths[i] = PathQuery{Start: geo.Point{X: p.Start.X, Y: p.Start.Y}, Features: p.Features}
	}
	preds, err := x.s.engine.Track(ctx, q)
	if err != nil {
		x.fail(err)
		return
	}
	resp := TrackResponse{RequestID: x.reqID, Model: req.Model, Results: make([]TrackResult, len(preds))}
	for i, p := range preds {
		resp.Results[i] = TrackResult{End: xy(p.End), Class: p.Class, Displacement: xy(p.Displacement)}
	}
	x.reply(http.StatusOK, resp)
}

func opModels(x *exchange) {
	x.reply(http.StatusOK, modelsResponse{Models: x.s.engine.ModelsLifecycle(), RequestID: x.reqID})
}

func opHealth(x *exchange) {
	h := x.s.engine.Health()
	x.reply(http.StatusOK, healthResponse{
		RequestID:     x.reqID,
		Status:        h.Status,
		Models:        h.Models,
		Batching:      h.Batching,
		Sessions:      h.Sessions,
		UptimeSeconds: int64(h.Uptime.Seconds()),
		Draining:      h.Draining,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.engine.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         h.Status,
		"models":         h.Models,
		"batching":       h.Batching,
		"sessions":       h.Sessions,
		"uptime_seconds": int64(h.Uptime.Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
	s.engine.Registry().WritePrometheus(w)
	s.engine.Sessions().WritePrometheus(w)
	if j := s.engine.Journal(); j != nil {
		j.WritePrometheus(w)
	}
	s.engine.Tracer().WritePrometheus(w) // nil-safe no-op with tracing off
	if s.retrain != nil {
		s.retrain.WritePrometheus(w)
	}
	obs.WriteRuntimePrometheus(w)
}
