package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// wireLog is a stub server that speaks just enough /v2 for the three
// drivers and keeps, per worker, every request in the order it was sent.
type wireLog struct {
	mu   sync.Mutex
	sent map[string][]string // worker → "path body" per request

	// turn serializes localize requests, which carry nothing that says
	// which worker sent them: the driver's per-request deadline hook
	// (called on the worker's goroutine just before the request) puts the
	// worker here, and the handler takes it out — one request in flight.
	turn chan string
}

func (l *wireLog) record(worker, path, body string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent[worker] = append(l.sent[worker], path+" "+body)
}

func (l *wireLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v2/models":
		io.WriteString(w, `{"models":[{"name":"w","kind":"wifi","input_dim":8},{"name":"i","kind":"imu","segment_dim":6}]}`)
	case r.URL.Path == "/v2/localize":
		body, _ := io.ReadAll(r.Body)
		l.record(<-l.turn, r.URL.Path, string(body))
		io.WriteString(w, `{"results":[]}`)
	case strings.HasPrefix(r.URL.Path, "/v2/sessions/"):
		body, _ := io.ReadAll(r.Body)
		l.record(strings.Split(r.URL.Path, "/")[3], r.URL.Path, string(body))
		io.WriteString(w, `{}`)
	case r.URL.Path == "/v2/track/stream":
		// The SDK's stream waits for the go-ahead before it sends its body.
		if r.Header.Get("Expect") == "100-continue" {
			w.WriteHeader(http.StatusContinue)
		}
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		rc.EnableFullDuplex()
		rc.Flush()
		worker := ""
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			if worker == "" { // the open line names the session
				worker = strings.Split(sc.Text(), `"`)[3]
			}
			l.record(worker, r.URL.Path, sc.Text())
			io.WriteString(w, "{}\n")
			rc.Flush()
		}
	default:
		http.NotFound(w, r)
	}
}

// digest hashes the first n requests of every worker, workers in order.
func (l *wireLog) digest(t *testing.T, n int) string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	workers := make([]string, 0, len(l.sent))
	for w := range l.sent {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	h := sha256.New()
	for _, w := range workers {
		if len(l.sent[w]) < n {
			t.Fatalf("worker %s sent %d requests, need %d to compare", w, len(l.sent[w]), n)
		}
		for _, req := range l.sent[w][:n] {
			fmt.Fprintf(h, "%s %s\n", w, req)
		}
	}
	return fmt.Sprintf("%d workers %x", len(workers), h.Sum(nil)[:8])
}

// noble-loadgen's seeded request stream: a pool of 64 payloads drawn
// from the seed, worker w's step s sending pool[(w*31+s)%64], a WiFi fix
// every 16th tracking step (the -fix-every default), session ids keyed
// by seed and worker. A given -seed replays the same traffic on every
// build and machine, so runs before and after a change are comparable;
// a change here means the same flags no longer send the same requests.
func TestSuiteRequestStreamIsUnchanged(t *testing.T) {
	cases := []struct {
		name string
		run  func(log *wireLog) func(env *Env) error
		n    int // requests per worker: past the pool wrap-around and two fixes
		want string
	}{
		{"localize", func(log *wireLog) func(env *Env) error {
			return func(env *Env) error {
				return runLocalize(env, func(w, step int) time.Duration {
					log.turn <- fmt.Sprint(w)
					return 0
				})
			}
		}, 70, "2 workers 412203841259c179"},
		{"track", func(*wireLog) func(env *Env) error {
			return func(env *Env) error { return runTrackSessions(env, nil) }
		}, 40, "2 workers a5d1f0f3d43e0f2a"},
		{"stream", func(*wireLog) func(env *Env) error { return runTrackStream }, 40, "2 workers c32779f4381237cd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &wireLog{sent: map[string][]string{}, turn: make(chan string, 1)}
			ts := httptest.NewServer(log)
			defer ts.Close()
			_, err := Drive(context.Background(), ts.URL, Load{
				Run: tc.run(log), Concurrency: 2, Duration: 500 * time.Millisecond, Seed: 42, FixEvery: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := log.digest(t, tc.n); got != tc.want {
				t.Fatalf("request stream digest %q, want %q", got, tc.want)
			}
		})
	}
}
