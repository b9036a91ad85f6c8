package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// WithFastTransport switches the client's simple JSON calls onto a
// minimal pooled HTTP/1.1 transport: one persistent TCP connection per
// in-flight request, request bytes assembled into a single write,
// response headers scanned just enough to find the status and body.
//
// The stock net/http transport costs tens of microseconds of CPU per
// request in connection-pool and header bookkeeping. A phone asking for
// its position once a minute never notices; a gateway fanning a
// building's worth of devices into one server — or a load generator
// sharing cores with the server it measures — does. The fast transport
// cuts that overhead to roughly a syscall pair per request.
//
// Scope: plain http:// URLs and buffered request/response bodies
// (Content-Length or chunked framing). Streaming (TrackStream) and
// https always use net/http. Context deadlines map to socket deadlines.
// A pooled connection that turns out to be dead is replayed once on a
// fresh dial iff no response byte was seen (the request was provably
// never processed), matching net/http's reuse semantics.
func WithFastTransport() Option {
	return func(c *Client) { c.wantFast = true }
}

// fastTransport is the pooled raw-HTTP/1.1 engine behind
// WithFastTransport.
type fastTransport struct {
	addr string // host:port
	pool chan *fastConn
}

// fastConn is one persistent connection.
type fastConn struct {
	c      net.Conn
	br     *bufio.Reader
	wbuf   []byte
	reused bool      // popped from the pool (vs freshly dialed)
	idle   time.Time // when it was returned to the pool
}

// maxResponseBytes caps a buffered response body on every transport and
// framing. The framing headers are the server's claim, not a fact: a
// Content-Length or chunk size is checked against the cap before any
// buffer is sized from it.
const maxResponseBytes = 64 << 20

// errResponseTooLarge fails an exchange whose response would exceed
// maxResponseBytes; the connection is closed, not pooled.
var errResponseTooLarge = errors.New("client: response too large (over 64 MiB)")

// maxConnIdle discards pooled connections idle longer than this: the
// peer (or an LB) may have silently closed them, and a dead socket
// surfaces as a spurious request failure.
const maxConnIdle = 60 * time.Second

// newFastTransport builds the engine for a base URL, or nil if the URL
// is not plain http.
func newFastTransport(base string) *fastTransport {
	u, err := url.Parse(base)
	if err != nil || u.Scheme != "http" || u.Host == "" {
		return nil
	}
	addr := u.Host
	if u.Port() == "" {
		addr += ":80"
	}
	return &fastTransport{addr: addr, pool: make(chan *fastConn, 256)}
}

// get pops a pooled connection (skipping ones idle past maxConnIdle)
// or dials a fresh one.
func (t *fastTransport) get(ctx context.Context) (*fastConn, error) {
	for {
		select {
		case fc := <-t.pool:
			if time.Since(fc.idle) > maxConnIdle {
				fc.c.Close()
				continue
			}
			fc.reused = true
			return fc, nil
		default:
		}
		break
	}
	return t.dial(ctx)
}

// dial opens a fresh connection.
func (t *fastTransport) dial(ctx context.Context) (*fastConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, err
	}
	return &fastConn{c: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full).
func (t *fastTransport) put(fc *fastConn) {
	fc.idle = time.Now()
	select {
	case t.pool <- fc:
	default:
		fc.c.Close()
	}
}

// roundTrip performs one exchange. hdr carries the few extra headers
// the SDK sets (Content-Type, X-Deadline-Ms). A reused connection that
// dies before yielding any response byte was almost certainly closed by
// the peer while pooled (server restart, LB idle kill) — the request
// was never processed, so it is replayed once on a fresh dial; this is
// the same guarantee net/http gives, and it is what makes the transport
// safe for never-retried session appends.
func (t *fastTransport) roundTrip(ctx context.Context, method, path string, hdr [][2]string, body []byte) (int, []byte, error) {
	fc, err := t.get(ctx)
	if err != nil {
		return 0, nil, err
	}
	status, resp, keep, started, err := t.exchange(ctx, fc, method, path, hdr, body)
	if err != nil {
		fc.c.Close()
		if !fc.reused || started {
			return 0, nil, err
		}
		if fc, err = t.dial(ctx); err != nil {
			return 0, nil, err
		}
		if status, resp, keep, _, err = t.exchange(ctx, fc, method, path, hdr, body); err != nil {
			fc.c.Close()
			return 0, nil, err
		}
	}
	if keep {
		t.put(fc)
	} else {
		fc.c.Close()
	}
	return status, resp, nil
}

// exchange writes one request and reads one response on fc. started
// reports whether any response byte arrived before a failure.
func (t *fastTransport) exchange(ctx context.Context, fc *fastConn, method, path string, hdr [][2]string, body []byte) (status int, resp []byte, keepAlive, started bool, err error) {
	if dl, has := ctx.Deadline(); has {
		fc.c.SetDeadline(dl)
	} else {
		fc.c.SetDeadline(time.Time{})
	}

	// One write: request line, headers, body.
	b := fc.wbuf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, t.addr...)
	b = append(b, '\r', '\n')
	for _, h := range hdr {
		b = append(b, h[0]...)
		b = append(b, ':', ' ')
		b = append(b, h[1]...)
		b = append(b, '\r', '\n')
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	b = append(b, body...)
	fc.wbuf = b
	if _, err := fc.c.Write(b); err != nil {
		return 0, nil, false, false, err
	}

	// Status line.
	line, err := fc.br.ReadSlice('\n')
	if len(line) > 0 {
		started = true
	}
	if err != nil {
		return 0, nil, false, started, err
	}
	if len(line) < 12 || !strings.HasPrefix(string(line[:5]), "HTTP/") {
		return 0, nil, false, true, fmt.Errorf("client: malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, false, true, fmt.Errorf("client: bad status line %q", line)
	}

	// Headers: only the framing headers matter here.
	contentLength := -1
	chunked := false
	keepAlive = true
	for {
		line, err = fc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, true, err
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		if v, found := headerValue(line, "Content-Length"); found {
			if contentLength, err = strconv.Atoi(v); err != nil {
				return 0, nil, false, true, fmt.Errorf("client: bad Content-Length %q", v)
			}
		}
		if v, found := headerValue(line, "Transfer-Encoding"); found && strings.EqualFold(v, "chunked") {
			chunked = true
		}
		if v, found := headerValue(line, "Connection"); found && strings.EqualFold(v, "close") {
			keepAlive = false
		}
	}
	switch {
	case chunked:
		// Go's server chunk-encodes any body over its sniff buffer
		// (2 KiB), so large-but-ordinary responses land here.
		if resp, err = readChunked(fc.br); err != nil {
			return 0, nil, false, true, err
		}
	case contentLength > maxResponseBytes:
		return 0, nil, false, true, errResponseTooLarge
	case contentLength >= 0:
		resp = make([]byte, contentLength)
		if _, err = readFull(fc.br, resp); err != nil {
			return 0, nil, false, true, err
		}
	default:
		// Close-delimited (HTTP/1.0 style): read to EOF; the conn is
		// not reusable.
		if resp, err = io.ReadAll(io.LimitReader(fc.br, maxResponseBytes+1)); err != nil {
			return 0, nil, false, true, err
		}
		if len(resp) > maxResponseBytes {
			return 0, nil, false, true, errResponseTooLarge
		}
		keepAlive = false
	}
	return status, resp, keepAlive, true, nil
}

// readChunked decodes a chunked transfer coding body (discarding any
// trailers).
func readChunked(br *bufio.Reader) ([]byte, error) {
	var out []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		sizeTok, _, _ := strings.Cut(strings.TrimSpace(line), ";")
		size, err := strconv.ParseInt(sizeTok, 16, 32)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("client: bad chunk size %q", line)
		}
		if size == 0 {
			break
		}
		if size > int64(maxResponseBytes-len(out)) {
			return nil, errResponseTooLarge
		}
		chunk := make([]byte, size+2) // chunk data + trailing CRLF
		if _, err := readFull(br, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk[:size]...)
	}
	// Trailer section: lines until the terminating bare CRLF.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if len(strings.TrimSpace(line)) == 0 {
			return out, nil
		}
	}
}

// headerValue matches one "Name: value" line case-insensitively and
// returns the trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name)+1 || line[len(name)] != ':' {
		return "", false
	}
	if !strings.EqualFold(string(line[:len(name)]), name) {
		return "", false
	}
	return strings.TrimSpace(string(line[len(name)+1:])), true
}

// readFull fills buf from br.
func readFull(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
