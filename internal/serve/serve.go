// Package serve is the online inference layer: it turns the offline NObLe
// models into a long-lived localization service in the shape FIND3 uses
// for fingerprint localization — a model registry keyed by name, an HTTP
// JSON API, and operational introspection — plus a micro-batching engine
// that coalesces concurrent inference requests into single batched
// forward passes, and a stateful tracking-session layer that fuses the
// paper's two model kinds (IMU dead reckoning re-anchored by WiFi fixes)
// per device.
//
// The package is layered transport-first:
//
//   - Engine is the transport-independent facade: it owns the registry,
//     the batchers and the session store, and exposes Localize / Track /
//     AppendSegments / Session / ModelsLifecycle / Health as plain
//     context-aware methods with typed errors (machine-readable codes +
//     suggested HTTP statuses). Embedders and tests drive it directly.
//   - Server is the HTTP adapter over an Engine: one table of
//     operations, each written once, mounted under /v2 — the structured
//     error envelope, server-assigned request IDs, per-request
//     deadlines, and NDJSON streaming tracking. Golden-file tests pin
//     the bytes.
//
// The registry loads named model bundles (manifest.json + weights.gob,
// written by WriteBundle / `noble-train -bundle`) from a directory and
// hot-reloads them atomically: a changed bundle is rebuilt fully off the
// request path and swapped in under a write lock, so in-flight requests
// always see a complete model and a bundle that fails to load leaves the
// previous generation serving.
//
// Hot reload is a staged deployment pipeline, not "latest load wins": a
// changed bundle of a served name enters SHADOW (never answering user
// traffic), accumulates live evidence — a sampled fraction of real
// requests mirrored through it off the request path, plus re-anchor
// fixes scoring every live generation's prediction against ground truth
// — advances to CANARY, and is promoted to active (or automatically
// rolled back) by the policy controller in internal/serve/lifecycle
// according to the bundle's lifecycle.json sidecar. Stage transitions
// are journaled as WAL lifecycle events, so the pipeline's state
// survives a crash. See Registry, Stage, and the lifecycle package.
//
// Micro-batching exploits the shape of the paper's workload — millions of
// devices issuing tiny single-fingerprint or single-segment queries —
// where the per-request matmul is too small to amortize dispatch cost.
// Requests arriving within a short window (default 2 ms) are packed into
// one matrix and answered by one batched forward pass; see Batcher. The
// engine is generic: one instance coalesces localize fingerprints into
// (*core.WiFiModel).PredictBatch, another coalesces track and session
// steps into (*core.IMUModel).PredictPaths. A request whose context is
// canceled while queued is dropped before the pass fires, so abandoned
// work never consumes forward-pass rows.
//
// Tracking sessions (POST /v2/sessions/{id}/segments) keep per-device
// path state server-side in a sharded, lock-striped store with TTL
// eviction, so a device streams one IMU segment per request instead of
// resending its whole path; see the session package.
//
// Sessions can be made durable: with Config.Journal set, every session
// mutation is appended (under the session lock, off the inference hot
// path) to a write-ahead log (see internal/store), RestoreSessions
// rebuilds bit-identical tracker state after a restart, and
// ReplayJournal re-runs a recorded journal against an Engine as an
// offline benchmark/regression scenario (cmd/noble-replay).
package serve

import (
	"net/http"
	"time"

	"noble/internal/obs"
	"noble/internal/serve/session"
	"noble/internal/store"
)

// Config assembles an Engine (and, via New, a Server over it).
type Config struct {
	// Registry resolves model names; required.
	Registry *Registry
	// BatchWindow is how long a localize or track request may wait for
	// companions to share a forward pass. Zero or negative disables
	// micro-batching (every request runs its own pass) — the comparison
	// baseline for noble-loadgen.
	BatchWindow time.Duration
	// MaxBatch caps rows (fingerprints or paths) per coalesced forward
	// pass; a full batch flushes immediately without waiting out the
	// window. Defaults to 64.
	MaxBatch int
	// SessionTTL evicts tracking sessions idle longer than this. Zero
	// disables eviction; the sweeper itself only runs when the caller
	// starts it (see Sessions().Run).
	SessionTTL time.Duration
	// Journal, when set, makes tracking sessions durable: every session
	// mutation is appended to this write-ahead log (see internal/store)
	// and RestoreSessions reads it back after a restart. Nil disables
	// persistence. The caller owns the journal's lifecycle (Open,
	// Recover, the Run sync loop, Close).
	Journal *store.Journal
	// Tracer collects per-request traces (see internal/obs). Nil gets a
	// default tracer at 100% sampling — tracing is on by default, and
	// the tier-1 suite runs with it on, so instrumentation races cannot
	// hide behind an opt-in flag. Set NoTrace to run untraced.
	Tracer *obs.Tracer
	// NoTrace disables request tracing entirely. The benchmark's
	// end-to-end runs are untraced, and its traced/untraced pair is
	// obs.trace_overhead_share (bench/README.md).
	NoTrace bool
	// MirrorRate is the fraction of localize/track traffic mirrored
	// through staged (shadow/canary) model generations for live
	// evaluation, in (0, 1]. Zero disables sampled mirroring; re-anchor
	// scoring of staged generations still runs (fixes are the lifecycle's
	// ground-truth labels and are far rarer than inference traffic).
	MirrorRate float64
}

// Server is the HTTP adapter over an Engine. Construct with New (or
// NewServer over an existing Engine), expose with Handler.
type Server struct {
	engine  *Engine
	metrics *Metrics
	mux     *http.ServeMux
	retrain RetrainController // nil until SetRetrain
}

// New wires an Engine from cfg and a Server over it.
func New(cfg Config) *Server { return NewServer(NewEngine(cfg)) }

// NewServer builds the HTTP adapter for an existing Engine.
func NewServer(e *Engine) *Server {
	s := &Server{engine: e, metrics: e.Metrics(), mux: http.NewServeMux()}
	s.routes()
	return s
}

// Engine returns the transport-independent core this server adapts.
func (s *Server) Engine() *Engine { return s.engine }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Batching reports whether micro-batching is enabled.
func (s *Server) Batching() bool { return s.engine.Batching() }

// Sessions exposes the tracking-session store (for the TTL sweeper and
// introspection).
func (s *Server) Sessions() *session.Store { return s.engine.Sessions() }

// StartDraining rejects new inference requests with 503 (structured
// error envelope, code "server_draining") while in-flight requests —
// including batched passes already queued — run to completion. Call it
// before http.Server.Shutdown for a graceful drain.
func (s *Server) StartDraining() { s.engine.StartDraining() }
