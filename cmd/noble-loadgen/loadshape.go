package main

// The vocabulary of synthetic device traffic: payload synthesis and
// failure classification, shared by every driver so each mode replays
// the same traffic shape and buckets the identical failure identically.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"

	"noble/client"
)

// synthFingerprint synthesizes one normalized WiFi scan: ~30% of WAPs
// heard, values rounded to 4 significant digits (integer dBm over a
// ~75 dB span carries no more — full mantissas would triple the wire
// size for precision no scan possesses).
func synthFingerprint(rng *rand.Rand, dim int) []float64 {
	fp := make([]float64, dim)
	for j := range fp {
		if rng.Float64() < 0.7 {
			continue
		}
		fp[j] = math.Round(rng.Float64()*1e4) / 1e4
	}
	return fp
}

// synthSegment synthesizes one IMU segment's feature row: values shape
// the decoded positions, not the cost of a step, so rounded noise is
// fine.
func synthSegment(rng *rand.Rand, dim int) []float64 {
	seg := make([]float64, dim)
	for j := range seg {
		seg[j] = math.Round(rng.NormFloat64()*1e3) / 1e3
	}
	return seg
}

// Error classes failures bucket into in the report.
const (
	ErrClass4xx      = "http_4xx"
	ErrClass5xx      = "http_5xx"
	ErrClassDeadline = "deadline"
	ErrClassConn     = "conn"
)

// classify maps a wire-exchange outcome onto an error class ("" =
// success). A 504 is the server-side face of the same event as a
// client-side deadline expiry (whichever side notices first is
// scheduling luck), so both land in the deadline class — keeping
// deadline counts independent of which side won the race.
// Client-side expiry wears several shapes depending on transport:
// context.DeadlineExceeded (net/http), os.ErrDeadlineExceeded or a
// timeout net.Error (the SDK's fast transport enforces deadlines via
// conn.SetDeadline).
func classify(status int, err error) string {
	switch {
	case err == nil && status < 400:
		return ""
	case status == http.StatusGatewayTimeout || isDeadlineErr(err):
		return ErrClassDeadline
	case status >= 500:
		return ErrClass5xx
	case status >= 400:
		return ErrClass4xx
	default:
		return ErrClassConn
	}
}

// classifyError classifies from an error alone: an *APIError carries
// its HTTP status, anything else is a transport-level failure.
func classifyError(err error) string {
	if err == nil {
		return ""
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return classify(ae.Status, nil)
	}
	return classify(0, err)
}

// isDeadlineErr recognizes every shape a client-side deadline expiry
// takes across the SDK's transports.
func isDeadlineErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
