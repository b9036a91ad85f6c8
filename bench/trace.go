package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// processStart anchors span timestamps.
var processStart = time.Now()

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. The spans of one request share ID (the traced run
// sends it as X-Trace-Id, so the server's own trace of the request
// carries it too); a ladder rung's Parent is the rung above it, and its
// N and P50Us summarize the calls it timed.
type span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id,omitempty"`
	Parent  string  `json:"parent,omitempty"`
	StartUs int64   `json:"start_us"`
	EndUs   int64   `json:"end_us"`
	N       int     `json:"n,omitempty"`
	P50Us   float64 `json:"p50_us,omitempty"`
}

func newSpan(name, id, parent string, t0, t1 time.Time) span {
	return span{
		Name: name, ID: id, Parent: parent,
		StartUs: t0.Sub(processStart).Microseconds(),
		EndUs:   t1.Sub(processStart).Microseconds(),
	}
}

// writeTrace writes the run's spans as NDJSON to dir/trace.ndjson.
func writeTrace(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.ndjson"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
