package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"noble/internal/geo"
	"noble/internal/obs"
)

// Session operations: wire shapes for the stateful tracking endpoints
// and the NDJSON stream. All session logic (creation, WiFi fusion,
// per-segment decoding) lives in Engine.AppendSegments; this file only
// translates between JSON and the Engine's typed queries and states.

// SessionSegmentsRequest is the POST /v2/sessions/{id}/segments
// body (and one line of the stream). The first request for a device
// creates the session and must name the IMU model plus an origin — an
// explicit start anchor, a WiFi fingerprint, or both. Every request may
// carry zero or more IMU segments (a multiple of the model's
// segment_dim) and, optionally, a WiFi fingerprint that re-anchors the
// session's origin through the localize path before the segments are
// applied.
type SessionSegmentsRequest struct {
	Model  string `json:"model,omitempty"`  // IMU model; required on create
	Start  *XY    `json:"start,omitempty"`  // origin anchor (create only)
	Window int    `json:"window,omitempty"` // decode window in segments (create only; default 2)

	Features []float64 `json:"features,omitempty"` // k × segment_dim, appended in order

	WiFiModel   string    `json:"wifi_model,omitempty"`
	Fingerprint []float64 `json:"fingerprint,omitempty"`

	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SessionStepResult is one decoded tracking step.
type SessionStepResult struct {
	Step         int `json:"step"` // 1-based lifetime step index
	End          XY  `json:"end"`
	Class        int `json:"class"`
	Displacement XY  `json:"displacement"` // model displacement over the decode window
}

// SessionResponse describes a session's state after a request. On a
// mid-request inference failure the response carries the error's status
// (500 for a failed pass, 504 when a deadline expired mid-append) with
// Error set — the structured error object — and Results holding the
// steps that DID commit; the failing segment and everything after it
// were not applied (PathTracker.Step is pure), so the client resends
// exactly the unreported tail.
type SessionResponse struct {
	RequestID  string              `json:"request_id,omitempty"`
	Session    string              `json:"session"`
	Model      string              `json:"model"`
	Created    bool                `json:"created,omitempty"`
	ReAnchored bool                `json:"re_anchored,omitempty"`
	Anchor     *XY                 `json:"anchor,omitempty"` // the fused WiFi fix
	Steps      int                 `json:"steps"`
	Position   XY                  `json:"position"` // current end estimate
	Class      int                 `json:"class"`
	Traveled   XY                  `json:"traveled"` // displacement since origin / last fix
	Results    []SessionStepResult `json:"results,omitempty"`
	Error      *errorObject        `json:"error,omitempty"`
}

// deleteResponse answers a session delete.
type deleteResponse struct {
	Deleted   bool   `json:"deleted"`
	RequestID string `json:"request_id,omitempty"`
	Session   string `json:"session"`
}

// maxSegmentsPerRequest bounds how many tracking steps one request may
// smuggle in, mirroring maxPathsPerRequest on track.
const maxSegmentsPerRequest = 64

// defaultSessionWindow is the decode window when a session does not ask
// for one: short windows snap accumulated drift to the location codebook
// at every step (see core.PathTracker).
const defaultSessionWindow = 2

// segmentQuery maps the wire request onto the Engine's typed query.
func segmentQuery(id string, req *SessionSegmentsRequest) SegmentQuery {
	q := SegmentQuery{
		Session:     id,
		Model:       req.Model,
		Window:      req.Window,
		Features:    req.Features,
		WiFiModel:   req.WiFiModel,
		Fingerprint: req.Fingerprint,
	}
	if req.Start != nil {
		q.Start = &geo.Point{X: req.Start.X, Y: req.Start.Y}
	}
	return q
}

// sessionResponse maps an Engine session state — and, for the
// partial-commit contract, the error that cut the request short — onto
// the wire shape.
func (x *exchange) sessionResponse(st SessionState, err error) SessionResponse {
	resp := SessionResponse{
		RequestID:  x.reqID,
		Session:    st.Session,
		Model:      st.Model,
		Created:    st.Created,
		ReAnchored: st.ReAnchored,
		Steps:      st.Steps,
		Position:   xy(st.Position),
		Class:      st.Class,
		Traveled:   xy(st.Traveled),
	}
	if st.Anchor != nil {
		resp.Anchor = &XY{X: st.Anchor.X, Y: st.Anchor.Y}
	}
	for _, r := range st.Results {
		resp.Results = append(resp.Results, SessionStepResult{
			Step: r.Step, End: xy(r.End), Class: r.Class, Displacement: xy(r.Displacement),
		})
	}
	if err != nil {
		e := AsError(err)
		resp.Error = &errorObject{Code: e.Code, Message: e.Message, RequestID: x.reqID}
	}
	return resp
}

func opSessionAppend(x *exchange) {
	var req SessionSegmentsRequest
	if !x.decode(&req) {
		return
	}
	ctx, cancel, e := requestContext(x.r, req.DeadlineMs)
	if e != nil {
		x.fail(e)
		return
	}
	defer cancel()
	st, err := x.s.engine.AppendSegments(ctx, segmentQuery(x.r.PathValue("id"), &req))
	switch {
	case err == nil:
		x.reply(http.StatusOK, x.sessionResponse(st, nil))
	case st.Session != "":
		// A populated state alongside the error is the partial-commit
		// contract (see SessionResponse).
		x.reply(AsError(err).Status, x.sessionResponse(st, err))
	default:
		x.fail(err)
	}
}

func opSessionGet(x *exchange) {
	st, err := x.s.engine.Session(x.r.PathValue("id"))
	if err != nil {
		x.fail(err)
		return
	}
	x.reply(http.StatusOK, x.sessionResponse(st, nil))
}

func opSessionDelete(x *exchange) {
	id := x.r.PathValue("id")
	if err := x.s.engine.DeleteSession(id); err != nil {
		x.fail(err)
		return
	}
	x.reply(http.StatusOK, deleteResponse{Deleted: true, RequestID: x.reqID, Session: id})
}

// streamOpen is one NDJSON input line of a track/stream connection: a
// session request plus, on the first line, an optional session name.
// Without one the server runs the stream on an ephemeral session (named
// after the request ID) that is deleted when the connection ends.
type streamOpen struct {
	Session string `json:"session,omitempty"`
	SessionSegmentsRequest
}

// streamLine is one NDJSON response line: the decoded state after the
// corresponding input line, correlated by 1-based Seq. A line-level
// failure carries Error (with any partially committed steps alongside)
// and terminates the stream.
type streamLine struct {
	Seq int `json:"seq"`
	SessionResponse
}

// opTrackStream runs the NDJSON streaming-tracking protocol: the device
// sends one JSON object per line (the first may create/name the
// session, every line may carry segments and WiFi fixes) and receives
// one decoded estimate line per input line, flushed immediately, on a
// single connection.
func opTrackStream(x *exchange) {
	conn, cancel, e := requestContext(x.r, 0)
	if e != nil {
		x.fail(e)
		return
	}
	defer cancel()

	x.w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(x.w)
	// The stream interleaves reads of the request body with writes of
	// the response on one HTTP/1.1 connection; without full-duplex mode
	// the server holds all output until the request body is drained,
	// which would deadlock an interactive device. Best-effort: writers
	// that do not support it (HTTP/2, test recorders) are already
	// effectively full-duplex or in-memory.
	rc.EnableFullDuplex()
	// Commit the response headers before reading any input so a
	// streaming client's Do() returns immediately and it can drive the
	// connection interactively (send a line, read a line).
	x.w.WriteHeader(http.StatusOK)
	rc.Flush()
	enc := json.NewEncoder(x.w)

	var (
		sessID    string
		ephemeral bool
	)
	defer func() {
		if ephemeral {
			x.s.engine.DeleteSession(sessID)
		}
	}()
	step := func(ctx context.Context, seq int, raw []byte) (SessionState, error) {
		var in streamOpen
		dec := obs.Begin(ctx, obs.StageDecode)
		err := json.Unmarshal(raw, &in)
		dec.End()
		if err != nil {
			return SessionState{}, errf(CodeBadBody, http.StatusBadRequest, "decoding stream line %d: %v", seq, err)
		}
		if seq == 1 {
			if sessID = in.Session; sessID == "" {
				sessID, ephemeral = "stream-"+x.reqID, true
			}
		}
		return x.s.engine.AppendSegments(ctx, segmentQuery(sessID, &in.SessionSegmentsRequest))
	}

	// The stream body as a whole is unbounded by design; each line is
	// capped like any other request body.
	sc := bufio.NewScanner(x.r.Body)
	sc.Buffer(make([]byte, 0, 32<<10), maxBodyBytes)
	for seq := 1; ; seq++ {
		raw, err := nextLine(sc)
		if err == io.EOF {
			return
		}
		// Each line is one exchange with its own trace, under the
		// connection's trace ID: its spans and its total are a tracking
		// step's, not the connection's.
		ctx, tr := x.s.engine.Tracer().Start(conn, x.metric, obs.From(conn).ID())
		tr.SetRequestID(x.reqID)
		var st SessionState
		if errors.Is(err, bufio.ErrTooLong) {
			err = errf(CodeBodyTooLarge, http.StatusRequestEntityTooLarge, "stream line %d exceeds %d bytes", seq, maxBodyBytes)
		} else if err != nil {
			err = errf(CodeBadBody, http.StatusBadRequest, "reading stream line %d: %v", seq, err)
		} else {
			st, err = step(ctx, seq, raw)
		}
		out := obs.Begin(ctx, obs.StageEncode)
		enc.Encode(streamLine{Seq: seq, SessionResponse: x.sessionResponse(st, err)})
		rc.Flush()
		out.End()
		if err != nil {
			// A line-level failure terminates the stream.
			tr.Finish(AsError(err).Status)
			return
		}
		tr.Finish(http.StatusOK)
	}
}

// nextLine returns the next non-blank NDJSON line, io.EOF at the end of
// the stream, or the scanner's error (bufio.ErrTooLong past the cap).
func nextLine(sc *bufio.Scanner) ([]byte, error) {
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}
