package client

import (
	"context"
	"encoding/json"
	"net/http"
)

// Session is a handle on one server-side tracking session. Obtain with
// Client.Session; the session itself is created lazily by the first
// Append that carries a model and an origin.
type Session struct {
	c  *Client
	id string
}

// Session returns a handle for the tracking session named id.
func (c *Client) Session(id string) *Session { return &Session{c: c, id: id} }

// ID returns the session name.
func (s *Session) ID() string { return s.id }

// Append sends one session-segments request: create on first use, then
// any mix of IMU segments and WiFi re-anchor fingerprints.
//
// Appends are NOT retried automatically: a segment append is not
// idempotent (re-sending a delivered append would walk the device
// twice). On a mid-request inference failure (*APIError with status
// 500) the returned SessionState still carries the committed prefix —
// Results holds the steps that DID apply — so resend exactly the
// unreported tail. Wrap Append in your own retry only for errors where
// the request provably never reached the server.
func (s *Session) Append(ctx context.Context, req AppendRequest) (SessionState, error) {
	var st SessionState
	status, raw, err := s.c.roundTrip(ctx, http.MethodPost, "/sessions/"+s.id+"/segments", marshal(req))
	if err != nil {
		return st, err
	}
	if status < 300 {
		return st, json.Unmarshal(raw, &st)
	}
	apiErr := parseAPIError(status, raw)
	// The server's partial-commit contract: a mid-request step failure
	// is a 5xx (500 failed pass, 504 deadline mid-append) whose body is
	// the session state (committed Results, Steps, Position) with the
	// error riding along. Decode it so the caller can follow the
	// resend-only-the-tail protocol. The error object rides in a field
	// SessionState does not have; a non-session 5xx body leaves st zero.
	if status >= 500 {
		if json.Unmarshal(raw, &st) != nil || st.Session == "" {
			st = SessionState{}
		}
	}
	return st, apiErr
}

// Get reads the session's current state.
func (s *Session) Get(ctx context.Context) (SessionState, error) {
	var st SessionState
	err := s.c.do(ctx, http.MethodGet, "/sessions/"+s.id, nil, &st)
	return st, err
}

// Delete ends the session.
func (s *Session) Delete(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/sessions/"+s.id, nil, nil)
}
