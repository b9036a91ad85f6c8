package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"testing"

	"noble/client"
)

// timeoutErr mimics the net.Error a transport surfaces when a socket
// deadline fires (the fast transport's shape).
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		err    error
		want   string
	}{
		{200, nil, ""},
		{404, nil, ErrClass4xx},
		{500, nil, ErrClass5xx},
		{503, nil, ErrClass5xx},
		// Every face of a deadline expiry lands in one class: the
		// server-side 504, the net/http context error, and both shapes
		// the fast transport's conn.SetDeadline produces.
		{http.StatusGatewayTimeout, nil, ErrClassDeadline},
		{0, context.DeadlineExceeded, ErrClassDeadline},
		{0, fmt.Errorf("read: %w", os.ErrDeadlineExceeded), ErrClassDeadline},
		{0, timeoutErr{}, ErrClassDeadline},
		{0, errors.New("connection refused"), ErrClassConn},
	}
	for _, c := range cases {
		if got := classify(c.status, c.err); got != c.want {
			t.Fatalf("classify(%d, %v) = %q, want %q", c.status, c.err, got, c.want)
		}
	}
}

func TestClassifyError(t *testing.T) {
	if got := classifyError(nil); got != "" {
		t.Fatalf("nil error classified %q", got)
	}
	// An APIError is classified by its carried status, not its text.
	if got := classifyError(&client.APIError{Status: 504}); got != ErrClassDeadline {
		t.Fatalf("504 APIError classified %q", got)
	}
	if got := classifyError(&client.APIError{Status: 429}); got != ErrClass4xx {
		t.Fatalf("429 APIError classified %q", got)
	}
	if got := classifyError(errors.New("boom")); got != ErrClassConn {
		t.Fatalf("plain error classified %q", got)
	}
}

func TestSynthDeterminism(t *testing.T) {
	// Same seed, same stream — the property every before/after comparison
	// and cross-machine replay rests on.
	a := synthFingerprint(rand.New(rand.NewSource(7)), 32)
	b := synthFingerprint(rand.New(rand.NewSource(7)), 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fingerprint diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	s1 := synthSegment(rand.New(rand.NewSource(7)), 12)
	s2 := synthSegment(rand.New(rand.NewSource(7)), 12)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("segment diverged at %d", i)
		}
	}
	// And the scan shape holds: a fair share of WAPs unheard (zero).
	zeros := 0
	for _, v := range synthFingerprint(rand.New(rand.NewSource(1)), 1000) {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 500 || zeros > 900 {
		t.Fatalf("%d/1000 WAPs unheard, want ~700", zeros)
	}
}
