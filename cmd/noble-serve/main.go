// Command noble-serve is the online inference server: it loads named
// model bundles from a directory (hot-reloading changed bundles
// atomically), serves localization and tracking over an HTTP JSON API,
// and coalesces concurrent localize requests into batched forward passes.
//
// Usage:
//
//	noble-serve -models ./models [-addr :8080] [-admin-addr addr]
//	            [-reload 2s] [-batch-window 2ms] [-batch-max 32]
//	            [-session-ttl 10m] [-demo | -demo-tiny] [-check-bundles]
//	            [-state-dir ./state] [-fsync interval] [-compact-every 1m]
//	            [-mirror-rate 0.1] [-lifecycle-tick 5s]
//	            [-retrain-every 0] [-retrain-max-error-delta 0]
//	            [-retrain-min-samples 50] [-retrain-min-fixes 8] [-log-json]
//
// Every flag is parsed and checked before anything touches disk: a
// -retrain-* flag without -state-dir, an unknown -fsync, -demo together
// with -demo-tiny, a -mirror-rate outside [0, 1], a negative duration, a
// -batch-max below 1 or a stray argument is refused with an error naming
// it.
//
// With -state-dir, tracking sessions are durable: every session event
// (create, committed IMU segments, WiFi re-anchor, close/evict) is
// appended to a CRC-framed write-ahead log under the directory, and a
// restart restores all recorded sessions — bit-identical tracker state —
// before the listener opens. -fsync picks the durability/latency
// tradeoff (never, interval = every 100ms, always); -compact-every bounds
// recovery cost by periodically folding the log into per-session
// snapshots. A recorded directory replays offline with noble-replay.
//
// Every request is traced end to end (decode, batch-queue wait, the
// coalesced forward pass, session lock, journal append/fsync, encode);
// per-stage latency histograms land on /metrics and complete timelines
// on /debug/traces, tail-sampled to keep the slowest and errored
// requests, and requests slower than 250ms are logged. -admin-addr opens
// a second listener with the full debug plane (/debug/pprof,
// /debug/traces, /debug/runtime, /debug/lifecycle, /metrics, and the
// /admin/... endpoints) kept off the serving port — bind it to loopback.
//
// New bundle generations do not swap straight into serving: unless a
// bundle's lifecycle.json says otherwise, a republish lands the new
// generation in SHADOW, where a sampled fraction of live traffic
// (-mirror-rate) is mirrored through it off the request path and every
// WiFi re-anchor scores its prediction against the fix. The promotion
// controller (-lifecycle-tick) advances shadow → canary → active when
// the bundle's policy window is met, and automatically rolls back a
// canary whose live error or pass latency regresses past policy.
// Lifecycle transitions are journaled to -state-dir, so stages survive
// a crash. Manual overrides are admin-plane POSTs:
//
//	curl -X POST http://127.0.0.1:9090/admin/lifecycle/demo-wifi/promote
//	curl -X POST http://127.0.0.1:9090/admin/lifecycle/demo-wifi/rollback
//
// With -state-dir the retraining loop (DESIGN.md §11) is also armed:
// the session WAL's re-anchor fixes are harvestable into a training
// corpus under <state-dir>/retrain, POST /admin/retrain/{model} kicks a
// harvest+retrain whose republished bundle enters shadow like any
// other, and /debug/retrain + noble_retrain_* metrics expose the loop's
// state. Setting -retrain-every and/or -retrain-max-error-delta starts
// the automatic trigger, evaluated every 30s: retrain on a wall-clock
// schedule, or when a model's rolling re-anchor error drifts past its
// promotion-time baseline by the configured delta.
//
// Endpoints (docs/API.md is the wire reference):
//
//	POST   /v2/localize      {"model":"m","fingerprints":[[...]]}
//	POST   /v2/track         {"model":"m","paths":[{"start":{"x":0,"y":0},"features":[...]}]}
//	POST   /v2/track/stream  NDJSON streaming tracking, one line per step
//	POST   /v2/sessions/{id}/segments
//	                         stateful tracking: append IMU segments to a
//	                         per-device session, optionally carrying a WiFi
//	                         fingerprint that re-anchors the trajectory
//	GET    /v2/sessions/{id} session state (steps, position, travel)
//	DELETE /v2/sessions/{id} end a session
//	GET    /v2/models        every live model generation and its shapes
//	GET    /v2/health        liveness with request ID and drain state
//	GET    /healthz          liveness
//	GET    /metrics          Prometheus text: request counts, latency
//	                         quantiles, micro-batch occupancy per kind,
//	                         session gauges/counters, per-stage trace
//	                         histograms, runtime/GC gauges
//	GET    /debug/traces     retained request traces (JSON)
//	GET    /debug/runtime    goroutine/heap/GC snapshot (JSON)
//	GET    /debug/lifecycle  deployment pipeline: every live generation's
//	                         stage, policy, and live evaluation evidence
//	GET    /debug/retrain    retraining loop: corpus size, trigger state,
//	                         last harvest and last retrain run
//
// With -demo, a small Wi-Fi localizer and IMU tracker are trained at
// startup (a few seconds) and written into -models as regular bundles, so
// a fresh checkout can serve traffic with one command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"noble/internal/obs"
	"noble/internal/retrain"
	"noble/internal/serve"
	"noble/internal/serve/lifecycle"
	"noble/internal/store"
)

// retrainTick is the retrain trigger's evaluation cadence: each tick
// harvests the WAL and checks drift and schedule. It undercuts the
// default -compact-every, so fixes are harvested before compaction
// folds them into fingerprint-less snapshots.
const retrainTick = 30 * time.Second

// config is the whole operator surface: one field per flag, filled and
// checked by parseConfig before run performs any side effect.
type config struct {
	addr, adminAddr     string
	modelsDir, stateDir string
	reload              time.Duration
	checkBundles        bool
	demo, demoTiny      bool
	batchWindow         time.Duration
	batchMax            int
	sessionTTL          time.Duration
	fsync               store.FsyncPolicy
	compactEvery        time.Duration
	mirrorRate          float64
	lifecycleTick       time.Duration
	retrainEvery        time.Duration
	retrainMaxErrDelta  float64
	retrainMinSamples   int64
	retrainMinFixes     int
	logJSON             bool
}

// newFlagSet declares every flag on a fresh set, bound to cfg. The help
// golden and the README flag-table test render it without running
// anything.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("noble-serve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.adminAddr, "admin-addr", "", "debug/admin-plane listen address (pprof, traces, /admin/... endpoints; empty disables — bind to loopback)")
	fs.StringVar(&cfg.modelsDir, "models", "models", "bundle directory (manifest.json + weights.gob per model)")
	fs.DurationVar(&cfg.reload, "reload", 2*time.Second, "bundle directory poll interval (0 disables hot reload)")
	fs.BoolVar(&cfg.checkBundles, "check-bundles", false, "load every bundle (int8 bundles re-run the accuracy gate) and exit: 0 if all load, 1 otherwise")
	fs.BoolVar(&cfg.demo, "demo", false, "train small demo models into -models before serving")
	fs.BoolVar(&cfg.demoTiny, "demo-tiny", false, "train miniature demo models instead (seconds, not minutes) — for smoke tests and CI, not benchmarks")
	fs.DurationVar(&cfg.batchWindow, "batch-window", 2*time.Millisecond, "micro-batch coalescing window (0 disables batching)")
	fs.IntVar(&cfg.batchMax, "batch-max", 32, "max fingerprints per coalesced forward pass (best ≈ expected concurrent cohort)")
	fs.DurationVar(&cfg.sessionTTL, "session-ttl", 10*time.Minute, "evict tracking sessions idle longer than this, swept every ttl/4 (0 disables eviction)")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "durable session journal directory; also holds the retrain corpus (empty disables persistence and retraining)")
	fs.Func("fsync", "journal durability `policy`: never (buffered only), interval (fsync every 100ms; the default), always (group-committed fsync per request)",
		func(s string) (err error) {
			cfg.fsync, err = store.ParseFsyncPolicy(s)
			return err
		})
	fs.DurationVar(&cfg.compactEvery, "compact-every", time.Minute, "journal snapshot/compaction cadence (0 disables compaction)")
	fs.Float64Var(&cfg.mirrorRate, "mirror-rate", 0.1, "fraction in [0, 1] of localize/track traffic mirrored through staged (shadow/canary) generations for live evaluation")
	fs.DurationVar(&cfg.lifecycleTick, "lifecycle-tick", 5*time.Second, "promotion-controller evaluation cadence (0 disables automatic promotion/rollback; admin overrides still work)")
	fs.DurationVar(&cfg.retrainEvery, "retrain-every", 0, "retrain each corpus-backed wifi bundle on this wall-clock schedule (0 disables the schedule trigger; needs -state-dir)")
	fs.Float64Var(&cfg.retrainMaxErrDelta, "retrain-max-error-delta", 0, "retrain when a model's rolling re-anchor error exceeds its baseline by this many meters (0 disables the drift trigger; needs -state-dir)")
	fs.Int64Var(&cfg.retrainMinSamples, "retrain-min-samples", 50, "re-anchor scores needed past the baseline before the drift trigger may fire (needs -state-dir)")
	fs.IntVar(&cfg.retrainMinFixes, "retrain-min-fixes", 8, "refuse to retrain a model with fewer corpus fixes than this (needs -state-dir)")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "emit logs as JSON instead of logfmt text")
	return fs
}

// parseConfig parses args and checks every cross-field rule once. It
// touches nothing but its return values, so a refused command line has
// no side effect.
func parseConfig(args []string) (config, error) {
	var cfg config
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q (every setting is a flag)", fs.Arg(0))
	}
	if cfg.demo && cfg.demoTiny {
		return cfg, errors.New("-demo and -demo-tiny are exclusive: pick one demo scale")
	}
	if !(cfg.mirrorRate >= 0 && cfg.mirrorRate <= 1) { // NaN too
		return cfg, fmt.Errorf("-mirror-rate %g: want a fraction in [0, 1]", cfg.mirrorRate)
	}
	if cfg.batchMax < 1 {
		return cfg, fmt.Errorf("-batch-max %d: want at least 1", cfg.batchMax)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		if g, ok := f.Value.(flag.Getter); ok {
			if d, ok := g.Get().(time.Duration); ok && d < 0 {
				err = fmt.Errorf("-%s %v: must not be negative", f.Name, d)
				return
			}
		}
		if strings.HasPrefix(f.Name, "retrain-") && cfg.stateDir == "" {
			// Without a journal there is no retrain manager, so the flag
			// would be silently ignored.
			err = fmt.Errorf("-%s needs -state-dir: the retrain loop harvests the session journal", f.Name)
		}
	})
	return cfg, err
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noble-serve:", err)
		os.Exit(2)
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if cfg.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, cfg, logger, nil)
	stop()
	if err != nil {
		logger.Error("noble-serve", "err", err)
		os.Exit(1)
	}
}

// run boots the server from cfg and serves until ctx is done, then
// drains in-flight requests and closes the journal. onListen, when set,
// receives the public listener's resolved address.
func run(ctx context.Context, cfg config, logger *slog.Logger, onListen func(addr string)) (err error) {
	// One slog logger feeds the server's own lines, the registry and
	// journal (via the printf adapter), and the tracer's slow-request
	// warnings.
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	logger.Info("config", "addr", cfg.addr, "admin_addr", cfg.adminAddr, "models", cfg.modelsDir,
		"reload", cfg.reload, "batch_window", cfg.batchWindow, "batch_max", cfg.batchMax,
		"session_ttl", cfg.sessionTTL, "state_dir", cfg.stateDir, "fsync", cfg.fsync,
		"compact_every", cfg.compactEvery, "mirror_rate", cfg.mirrorRate, "lifecycle_tick", cfg.lifecycleTick,
		"retrain_every", cfg.retrainEvery, "retrain_max_error_delta", cfg.retrainMaxErrDelta,
		"retrain_min_samples", cfg.retrainMinSamples, "retrain_min_fixes", cfg.retrainMinFixes)

	if err := os.MkdirAll(cfg.modelsDir, 0o755); err != nil {
		return fmt.Errorf("creating models dir: %w", err)
	}
	if cfg.demo || cfg.demoTiny {
		scale := serve.DemoFull
		if cfg.demoTiny {
			scale = serve.DemoTiny
		}
		if err := serve.TrainDemoBundles(cfg.modelsDir, scale, logf); err != nil {
			return fmt.Errorf("training demo bundles: %w", err)
		}
	}

	reg := serve.NewRegistry(cfg.modelsDir, logf)
	if cfg.checkBundles {
		// Validation mode for CI and deploy pipelines: every bundle in
		// the directory must load (int8 bundles must also re-pass the
		// accuracy gate inside LoadBundle). Exit status is the verdict.
		loaded, _, err := reg.Reload()
		if err != nil {
			return fmt.Errorf("loading bundles from %s: %w", cfg.modelsDir, err)
		}
		if failed := reg.FailedBundles(); len(failed) > 0 {
			return fmt.Errorf("bundle check failed: %v", failed)
		}
		logger.Info("bundle check passed", "bundles", loaded)
		return nil
	}

	// Durable session journal: open and recover BEFORE the engine serves
	// anything, so restored sessions are in place when the listener opens.
	var (
		journal *store.Journal
		rec     *store.Recovery
	)
	if cfg.stateDir != "" {
		if journal, err = store.Open(store.Config{Dir: cfg.stateDir, Fsync: cfg.fsync, Logf: logf}); err != nil {
			return fmt.Errorf("opening session journal: %w", err)
		}
		// Deferred first, so it runs last: after the drain below has let
		// every in-flight handler append its final event.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("closing session journal: %w", cerr))
			}
		}()
		if rec, err = journal.Recover(); err != nil {
			return fmt.Errorf("recovering session journal: %w", err)
		}
		// Recovered lifecycle events drive where Reload places each
		// bundle: a generation that was mid-canary when the process died
		// resumes as canary, a rolled-back one stays retired.
		reg.SetRecoveredStages(serve.RecoveredStages(rec))
	}

	engine := serve.NewEngine(serve.Config{
		Registry:    reg,
		BatchWindow: cfg.batchWindow,
		MaxBatch:    cfg.batchMax,
		SessionTTL:  cfg.sessionTTL,
		Journal:     journal,
		Tracer:      obs.NewTracer(obs.Options{Logger: logger}),
		MirrorRate:  cfg.mirrorRate,
	})

	// First bundle load AFTER journal recovery (stages resume where they
	// were) and AFTER engine construction (the engine's transition hook is
	// installed, so even bootstrap activations are journaled).
	loaded, _, err := reg.Reload()
	if err != nil {
		return fmt.Errorf("loading bundles from %s: %w", cfg.modelsDir, err)
	}
	logger.Info("models loaded", "count", loaded, "dir", cfg.modelsDir)
	for _, info := range reg.ListLifecycle() {
		logger.Info("model", "name", info.Name, "kind", info.Kind, "precision", info.Precision,
			"classes", info.Classes, "flops", info.FLOPs, "stage", info.Stage)
	}

	if journal != nil {
		sum := engine.RestoreSessions(rec)
		logger.Info("session journal recovered", "dir", cfg.stateDir, "fsync", cfg.fsync,
			"restored", sum.Restored, "skipped", sum.Skipped, "closed", sum.Closed, "torn", sum.Torn)
	}
	srv := serve.NewServer(engine)

	// Retraining manager: armed whenever sessions are durable (the WAL is
	// the evidence source). Without trigger flags it is manual-only —
	// POST /admin/retrain/{model} or the noble-retrain CLI drive it; with
	// -retrain-every / -retrain-max-error-delta the trigger loop below
	// harvests and retrains on its own. Samples come straight from the
	// registry, and Reload stages a fresh publish without waiting for the
	// directory watcher.
	var retrainMgr *retrain.Manager
	if journal != nil {
		retrainMgr = retrain.NewManager(retrain.ManagerConfig{
			StateDir:  cfg.stateDir,
			ModelsDir: cfg.modelsDir,
			MinFixes:  cfg.retrainMinFixes,
			Trigger: retrain.TriggerPolicy{
				MaxErrorDeltaM: cfg.retrainMaxErrDelta,
				MinSamples:     cfg.retrainMinSamples,
				Every:          cfg.retrainEvery,
			},
			Samples: func() []retrain.Sample {
				var out []retrain.Sample
				for _, dep := range reg.Deployments() {
					if dep.Active == nil {
						continue
					}
					out = append(out, retrain.Sample{
						Model:      dep.Name,
						Generation: dep.Active.Generation,
						Scores:     dep.Active.Stats.Scores,
						ErrorSumM:  dep.Active.Stats.ErrorSumM,
					})
				}
				return out
			},
			Reload: func() error { _, _, err := reg.Reload(); return err },
			Logf:   logf,
		})
		srv.SetRetrain(retrainMgr)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go reg.Watch(ctx, cfg.reload)
	if cfg.lifecycleTick > 0 {
		ctl := &lifecycle.Controller{Registry: reg, Interval: cfg.lifecycleTick, Logf: logf}
		go ctl.Run(ctx)
	}
	if retrainMgr != nil && (cfg.retrainEvery > 0 || cfg.retrainMaxErrDelta > 0) {
		go retrainMgr.Run(ctx, retrainTick)
	}
	go srv.Sessions().Run(ctx, 0)
	if journal != nil {
		go journal.Run(ctx)
		go engine.RunJournalCompaction(ctx, cfg.compactEvery)
	}

	// Opt-in debug plane on its own listener: the full pprof family plus
	// traces, runtime, and metrics, kept off the serving port so fleet
	// traffic can never reach a profile endpoint.
	var adminSrv *http.Server
	if cfg.adminAddr != "" {
		adminLn, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			return fmt.Errorf("listening on admin addr: %w", err)
		}
		adminSrv = &http.Server{Handler: srv.DebugHandler()}
		logger.Info("debug plane listening", "addr", adminLn.Addr().String())
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug plane serving", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	drained := make(chan struct{})
	go func() {
		<-ctx.Done()
		// Graceful drain: new inference requests get 503 with the
		// structured server_draining envelope (so load balancers and the
		// client SDK fail over immediately) while in-flight requests —
		// including batched passes already queued — run to completion
		// under Shutdown.
		srv.StartDraining()
		shutdownCtx, release := context.WithTimeout(context.Background(), 5*time.Second)
		defer release()
		httpSrv.Shutdown(shutdownCtx)
		if adminSrv != nil {
			adminSrv.Shutdown(shutdownCtx)
		}
		close(drained)
	}()
	// Serve returns the moment Shutdown closes the listener, while
	// in-flight handlers are still appending — wait for the drain to
	// finish before the journal closes, or their final events would race
	// the close and be lost.
	defer func() {
		cancel()
		<-drained
	}()

	// Listen before announcing, and announce the RESOLVED address: with
	// -addr 127.0.0.1:0 the kernel picks a free port, and scripts (the CI
	// crash-recovery test, the perf rig) read it from this log line
	// instead of hard-coding a port that may be taken.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if onListen != nil {
		onListen(ln.Addr().String())
	}
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	logger.Info("shut down")
	return nil
}
