// Package client is the typed Go SDK for a running noble-serve: the
// supported way to call NObLe localization and tracking online instead
// of hand-rolling JSON over HTTP.
//
// A Client speaks the /v2 wire protocol — structured error envelopes
// with machine-readable codes (surfaced as *APIError), server-assigned
// request IDs, per-request deadlines derived from the context, NDJSON
// streaming tracking. Failed requests are retried with exponential
// backoff on connection errors and 5xx responses, except session
// appends, which are not idempotent and therefore never retried
// automatically.
//
//	c := client.New("http://localhost:8080")
//	positions, err := c.Localize(ctx, "demo-wifi", fingerprint)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client calls one noble-serve instance. It is safe for concurrent use;
// construct with New.
type Client struct {
	base    string
	hc      *http.Client
	retries int           // extra attempts after the first
	backoff time.Duration // base delay, doubled per retry

	wantFast bool
	fast     *fastTransport // non-nil with WithFastTransport on an http URL

	hook RequestHook // nil unless WithRequestHook
}

// RequestObservation describes one completed wire exchange, as seen by a
// WithRequestHook callback: the logical (unversioned) endpoint, how the
// exchange ended, and how long it took on the wire. Exactly one of the
// failure fields is meaningful: Err is the transport error (Status 0),
// otherwise Status is the HTTP answer (which may still be an API error).
type RequestObservation struct {
	Method   string
	Endpoint string // unversioned, e.g. "/localize"
	Status   int    // 0 when the exchange died in transport
	Err      error  // transport error; nil whenever the server answered
	Duration time.Duration
}

// RequestHook observes completed exchanges. It runs inline on the
// calling goroutine, so it must be fast and must not call back into the
// Client; it may be called concurrently.
type RequestHook func(RequestObservation)

// WithRequestHook installs a per-request observer: load generators and
// the benchmark rig collect wire-level latency and status series here
// without wrapping every call site. The hook sees one observation per
// attempt (a retried request observes once per try). Streaming
// connections (TrackStream) bypass the hook — they are not
// request/response.
func WithRequestHook(h RequestHook) Option { return func(c *Client) { c.hook = h } }

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// custom transports, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a retryable request (connection
// error, 5xx) is re-sent after the first attempt, and the base backoff
// delay (doubled per retry). WithRetries(0, 0) disables retries.
func WithRetries(n int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = n, base }
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). Defaults: a dedicated transport with ample
// per-host connection reuse (fleet workloads hit one host hard), 2
// retries with 50ms base backoff.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		retries: 2,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		tr := &http.Transport{
			MaxIdleConns:        0, // unlimited
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
			// How long a request sent with Expect: 100-continue (a
			// stream) waits for the server's go-ahead before it sends
			// its body anyway, for servers that never send one.
			ExpectContinueTimeout: time.Second,
			// Responses are small JSON; compression costs more than it saves.
			DisableCompression: true,
		}
		c.hc = &http.Client{Transport: tr}
	}
	if c.wantFast {
		c.fast = newFastTransport(c.base) // nil (net/http fallback) for https
	}
	return c
}

// BaseURL returns the server this client talks to.
func (c *Client) BaseURL() string { return c.base }

// retryable reports whether a failed attempt may be re-sent: any
// transport error (the request may never have reached the server), or
// a 5xx answer, which for the pure inference endpoints is safe to
// repeat. The one non-idempotent call, Session.Append, bypasses this
// machinery entirely (it uses roundTrip directly, one attempt).
func retryable(status int, err error) bool {
	return err != nil || status >= 500
}

// do runs one JSON exchange against endpoint with retries, decoding the
// 2xx response body into out (unless out is nil).
func (c *Client) do(ctx context.Context, method, endpoint string, body []byte, out any) error {
	attempts := 1 + c.retries
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		status, raw, err := c.roundTrip(ctx, method, endpoint, body)
		if err == nil && status < 300 {
			if out == nil {
				return nil
			}
			return json.Unmarshal(raw, out)
		}
		if err == nil {
			lastErr = parseAPIError(status, raw)
		} else {
			lastErr = err
		}
		if !retryable(status, err) {
			return lastErr
		}
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// roundTrip sends one attempt of an unversioned endpoint ("/localize")
// to its /v2 path.
func (c *Client) roundTrip(ctx context.Context, method, endpoint string, body []byte) (int, []byte, error) {
	var t0 time.Time
	if c.hook != nil {
		t0 = time.Now()
	}
	status, raw, err := c.send(ctx, method, "/v2"+endpoint, body)
	if c.hook != nil {
		c.hook(RequestObservation{
			Method:   method,
			Endpoint: endpoint,
			Status:   status,
			Err:      err,
			Duration: time.Since(t0),
		})
	}
	return status, raw, err
}

// send performs one HTTP exchange and slurps the response.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	if c.fast != nil {
		var hdr [][2]string
		if body != nil {
			hdr = append(hdr, [2]string{"Content-Type", "application/json"})
		}
		if ms, ok := deadlineMs(ctx); ok {
			hdr = append(hdr, [2]string{"X-Deadline-Ms", strconv.FormatInt(ms, 10)})
		}
		if id, ok := traceID(ctx); ok {
			hdr = append(hdr, [2]string{"X-Trace-Id", id})
		}
		return c.fast.roundTrip(ctx, method, path, hdr, body)
	}
	return c.sendHTTP(ctx, method, path, body)
}

// sendHTTP is the net/http exchange (always used for responses the fast
// transport cannot frame, like the chunked /metrics text).
func (c *Client) sendHTTP(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the context deadline to the server so an expired
	// request is dropped from the batch queue instead of computed for
	// a caller that stopped listening.
	if ms, ok := deadlineMs(ctx); ok {
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
	if id, ok := traceID(ctx); ok {
		req.Header.Set("X-Trace-Id", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// traceIDKey carries a caller-chosen trace ID on the context.
type traceIDKey struct{}

// WithTraceID returns a context whose requests carry the given trace ID
// in the X-Trace-Id header. The server adopts it as the request's trace
// ID (sanitized, capped at 64 bytes), so the caller can later pull the
// exact request's timeline out of /debug/traces — the handle that ties
// a fleet-side observation ("this call was slow") to the server-side
// per-stage breakdown. Servers without tracing ignore the header.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// traceID extracts a WithTraceID value, if any.
func traceID(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(traceIDKey{}).(string)
	return id, ok && id != ""
}

// deadlineMs converts a context deadline into the X-Deadline-Ms value.
func deadlineMs(ctx context.Context) (int64, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms, true
}

// marshal encodes a request body, panicking on programmer error (the
// wire types here always marshal).
func marshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("client: encoding request: %v", err))
	}
	return raw
}

// Localize asks the named Wi-Fi model for positions, one per
// fingerprint, in order.
func (c *Client) Localize(ctx context.Context, model string, fingerprints ...[]float64) ([]Position, error) {
	return c.localizeBody(ctx, appendLocalizeRequest(nil, model, fingerprints))
}

// localizeBody sends an encoded localize request and decodes the
// positions.
func (c *Client) localizeBody(ctx context.Context, body []byte) ([]Position, error) {
	var resp struct {
		Results []Position `json:"results"`
	}
	if err := c.do(ctx, http.MethodPost, "/localize", body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// PreparedLocalize is a localize request encoded once and reusable
// across many calls — for senders that replay a fixed set of payloads
// at high rate (load generators, synthetic monitors, batch re-scorers)
// where re-encoding identical fingerprints would dominate client CPU.
type PreparedLocalize struct {
	body []byte
}

// PrepareLocalize encodes a localize request for repeated sending.
func PrepareLocalize(model string, fingerprints ...[]float64) *PreparedLocalize {
	return &PreparedLocalize{body: appendLocalizeRequest(nil, model, fingerprints)}
}

// LocalizePrepared sends a prepared request; otherwise identical to
// Localize.
func (c *Client) LocalizePrepared(ctx context.Context, p *PreparedLocalize) ([]Position, error) {
	return c.localizeBody(ctx, p.body)
}

// appendLocalizeRequest renders {"model":M,"fingerprints":[[...],...]}
// without reflection: the request shape is exact by construction, so
// there is no parser and no fallback behind it.
func appendLocalizeRequest(b []byte, model string, fingerprints [][]float64) []byte {
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, model)
	b = append(b, `,"fingerprints":[`...)
	for i, fp := range fingerprints {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range fp {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, ']', '}')
	return b
}

// Track asks the named IMU model to decode path ends, one per path, in
// order.
func (c *Client) Track(ctx context.Context, model string, paths []Path) ([]TrackResult, error) {
	var resp struct {
		RequestID string        `json:"request_id"`
		Results   []TrackResult `json:"results"`
	}
	body := marshal(map[string]any{"model": model, "paths": paths})
	if err := c.do(ctx, http.MethodPost, "/track", body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Models lists the models registered on the server.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var resp struct {
		Models []ModelInfo `json:"models"`
	}
	if err := c.do(ctx, http.MethodGet, "/models", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Models, nil
}

// Health reports server liveness.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/health", nil, &h)
	return h, err
}

// Metrics returns the server's raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	status, raw, err := c.sendHTTP(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", parseAPIError(status, raw)
	}
	return string(raw), nil
}
