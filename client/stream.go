package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// StreamOpen configures a tracking stream: the fields of the first
// NDJSON line. Session names a server-side session to attach to (or
// create); left empty, the server runs the stream on an ephemeral
// session deleted when the connection ends.
type StreamOpen struct {
	Session string `json:"session,omitempty"`
	AppendRequest
}

// StreamUpdate is one decoded estimate line from a tracking stream,
// correlated to the corresponding input line by 1-based Seq.
type StreamUpdate struct {
	Seq int `json:"seq"`
	SessionState
	Error *StreamError `json:"error,omitempty"`
}

// StreamError is a structured line-level failure inside a stream; the
// server terminates the stream after sending one.
type StreamError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

// TrackStream is one NDJSON streaming-tracking connection
// (POST /v2/track/stream): the device sends IMU segments with Send and
// receives per-segment estimates with Recv, on a single connection.
// Send and Recv may run from different goroutines (one each).
type TrackStream struct {
	pw   *io.PipeWriter
	stop func() bool // unregisters the pipe's close on ctx end
	resp *http.Response
	dec  *json.Decoder

	sendMu sync.Mutex
	enc    *json.Encoder
}

// TrackStream opens a streaming-tracking connection and sends the open
// line. The first Recv answers the open line itself (its decode of any
// segments carried in open).
func (c *Client) TrackStream(ctx context.Context, open StreamOpen) (*TrackStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/track/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// The body is open-ended, so nothing but ctx ends a request whose
	// server never reads it (one that answers 404 without reading is
	// left draining the body, and the transport waits on its writer):
	// when ctx ends, the pipe fails and so does every wait on it.
	stop := context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	resp, err := c.hc.Do(req)
	if err != nil {
		stop()
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		stop()
		pw.Close()
		return nil, parseAPIError(resp.StatusCode, raw)
	}
	st := &TrackStream{pw: pw, stop: stop, resp: resp, dec: json.NewDecoder(resp.Body), enc: json.NewEncoder(pw)}
	if err := st.encode(open); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// RequestID returns the server-assigned ID for this stream.
func (s *TrackStream) RequestID() string { return s.resp.Header.Get("X-Request-Id") }

// encode writes one NDJSON line.
func (s *TrackStream) encode(v any) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.enc.Encode(v)
}

// Send streams one more request line: IMU segments and/or a WiFi
// re-anchor fingerprint.
func (s *TrackStream) Send(req AppendRequest) error { return s.encode(req) }

// Recv reads the next estimate line. A line-level server failure
// returns the update (with any partially committed steps) alongside an
// *APIError; end of stream returns io.EOF.
func (s *TrackStream) Recv() (StreamUpdate, error) {
	var u StreamUpdate
	if err := s.dec.Decode(&u); err != nil {
		return u, err
	}
	if u.Error != nil {
		return u, &APIError{
			Status:    http.StatusInternalServerError,
			Code:      u.Error.Code,
			Message:   u.Error.Message,
			RequestID: u.Error.RequestID,
		}
	}
	return u, nil
}

// CloseSend ends the request side: the server finishes the stream and
// Recv drains the remaining lines before io.EOF.
func (s *TrackStream) CloseSend() error { return s.pw.Close() }

// Close tears the stream down entirely.
func (s *TrackStream) Close() error {
	s.stop()
	s.pw.Close()
	return s.resp.Body.Close()
}
