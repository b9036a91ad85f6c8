// Command noble-serve is the online inference server: it loads named
// model bundles from a directory (hot-reloading changed bundles
// atomically), serves localization and tracking over an HTTP JSON API,
// and coalesces concurrent localize requests into batched forward passes.
//
// Usage:
//
//	noble-serve -models ./models [-addr :8080] [-batch-window 2ms]
//	            [-batch-max 32] [-reload 2s] [-session-ttl 10m]
//	            [-session-sweep 0] [-demo] [-demo-tiny]
//	            [-state-dir ./state] [-fsync interval] [-sync-interval 100ms]
//	            [-compact-every 1m] [-trace] [-trace-sample 1.0]
//	            [-trace-ring 256] [-slow-ms 250] [-admin-addr addr]
//	            [-mirror-rate 0.1] [-lifecycle-tick 5s]
//	            [-retrain-corpus dir] [-retrain-every 0] [-retrain-tick 30s]
//	            [-retrain-max-error-delta 0] [-retrain-min-samples 50]
//	            [-retrain-retention 168h] [-retrain-min-fixes 8]
//	noble-serve -admin-addr host:port -promote model
//	noble-serve -admin-addr host:port -rollback model
//	noble-serve -admin-addr host:port -retrain model
//
// With -state-dir, tracking sessions are durable: every session event
// (create, committed IMU segments, WiFi re-anchor, close/evict) is
// appended to a CRC-framed write-ahead log under the directory, and a
// restart restores all recorded sessions — bit-identical tracker state —
// before the listener opens. -fsync picks the durability/latency
// tradeoff (never, interval, always); -compact-every bounds recovery
// cost by periodically folding the log into per-session snapshots. A
// recorded directory replays offline with noble-replay.
//
// Every request is traced end to end (decode, batch-queue wait, the
// coalesced forward pass, session lock, journal append/fsync, encode);
// per-stage latency histograms land on /metrics and complete timelines
// on /debug/traces, tail-sampled to keep the slowest and errored
// requests. -trace-sample thins the recent-trace ring under load
// (histograms and the slow/errored sets still see every request);
// -slow-ms sets the slow-request threshold for retention and the
// rate-limited slow-request log line; -trace=false turns the tracer
// off entirely. -admin-addr opens a second listener with the full
// debug plane (/debug/pprof, /debug/traces, /debug/runtime,
// /debug/lifecycle, /metrics, and the lifecycle admin endpoints)
// kept off the serving port — bind it to loopback.
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
// a crash. Manual overrides run as an admin client against a live
// server: noble-serve -admin-addr ... -promote model (or -rollback).
//
// With -state-dir the retraining loop (DESIGN.md §11) is also armed:
// the session WAL's re-anchor fixes are harvestable into a training
// corpus (-retrain-corpus, default <state-dir>/retrain), POST
// /admin/retrain/{model} kicks a harvest+retrain whose republished
// bundle enters shadow like any other, and /debug/retrain +
// noble_retrain_* metrics expose the loop's state. Setting
// -retrain-every and/or -retrain-max-error-delta starts the automatic
// trigger: retrain on a wall-clock schedule, or when a model's rolling
// re-anchor error drifts past its promotion-time baseline by the
// configured delta (evaluated every -retrain-tick).
//
// Endpoints:
//
//	POST   /v1/localize      {"model":"m","fingerprints":[[...]]}
//	POST   /v1/track         {"model":"m","paths":[{"start":{"x":0,"y":0},"features":[...]}]}
//	POST   /v1/sessions/{id}/segments
//	                         stateful tracking: append IMU segments to a
//	                         per-device session, optionally carrying a WiFi
//	                         fingerprint that re-anchors the trajectory
//	GET    /v1/sessions/{id} session state (steps, position, travel)
//	DELETE /v1/sessions/{id} end a session
//	GET    /v1/models        registered models and their shapes
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
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"noble/internal/obs"
	"noble/internal/retrain"
	"noble/internal/serve"
	"noble/internal/serve/lifecycle"
	"noble/internal/store"
)

// lifecycleOverride POSTs a manual promote/rollback to a running
// server's admin plane and reports the server's verdict.
func lifecycleOverride(adminAddr, model, verb string) error {
	url := fmt.Sprintf("http://%s/admin/lifecycle/%s/%s", adminAddr, model, verb)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server said %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// retrainOverride POSTs a manual retrain kick to a running server's
// admin plane. The server answers 202 and runs the harvest+retrain in
// the background; watch /debug/retrain for the outcome.
func retrainOverride(adminAddr, model string) error {
	url := fmt.Sprintf("http://%s/admin/retrain/%s", adminAddr, model)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("server said %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelsDir := flag.String("models", "models", "bundle directory (manifest.json + weights.gob per model)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond,
		"micro-batch coalescing window (0 disables batching)")
	batchMax := flag.Int("batch-max", 32, "max fingerprints per coalesced forward pass (best ≈ expected concurrent cohort)")
	reload := flag.Duration("reload", 2*time.Second, "bundle directory poll interval (0 disables hot reload)")
	sessionTTL := flag.Duration("session-ttl", 10*time.Minute, "evict tracking sessions idle longer than this (0 disables eviction)")
	sessionSweep := flag.Duration("session-sweep", 0, "session eviction sweep interval (0 = ttl/4)")
	demo := flag.Bool("demo", false, "train small demo models into -models before serving")
	demoTiny := flag.Bool("demo-tiny", false, "train miniature demo models (seconds, not minutes) — for smoke tests and CI, not benchmarks")
	checkBundles := flag.Bool("check-bundles", false, "load every bundle (int8 bundles re-run the accuracy gate) and exit: 0 if all load, 1 otherwise")
	stateDir := flag.String("state-dir", "", "durable session journal directory (empty disables persistence)")
	fsync := flag.String("fsync", "interval", "journal durability: never (buffered only), interval (periodic fsync), always (group-committed fsync per request)")
	syncInterval := flag.Duration("sync-interval", 100*time.Millisecond, "journal flush+fsync cadence under -fsync=interval")
	compactEvery := flag.Duration("compact-every", time.Minute, "journal snapshot/compaction cadence (0 disables compaction)")
	trace := flag.Bool("trace", true, "per-request end-to-end tracing (histograms on /metrics, timelines on /debug/traces)")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of traces admitted to the recent ring (slow/errored retention and histograms always see every request)")
	traceRing := flag.Int("trace-ring", 256, "recent-trace ring capacity on /debug/traces")
	slowMs := flag.Int("slow-ms", 250, "slow-request threshold in milliseconds (tail retention + rate-limited warn log)")
	adminAddr := flag.String("admin-addr", "", "debug-plane listen address (pprof, traces, runtime; empty disables — bind to loopback)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of logfmt text")
	mirrorRate := flag.Float64("mirror-rate", 0.1,
		"fraction of localize/track traffic mirrored through staged (shadow/canary) generations for live evaluation (0 disables sampled mirroring)")
	lifecycleTick := flag.Duration("lifecycle-tick", 5*time.Second,
		"promotion-controller evaluation cadence (0 disables automatic promotion/rollback; manual overrides still work)")
	promote := flag.String("promote", "",
		"admin-client mode: promote the named model's staged generation one stage via -admin-addr, then exit")
	rollback := flag.String("rollback", "",
		"admin-client mode: retire the named model's staged generation via -admin-addr, then exit")
	retrainKick := flag.String("retrain", "",
		"admin-client mode: kick a harvest+retrain of the named model via -admin-addr, then exit")
	retrainCorpus := flag.String("retrain-corpus", "",
		"training corpus directory for harvested re-anchor fixes (default <state-dir>/retrain; needs -state-dir)")
	retrainTick := flag.Duration("retrain-tick", 30*time.Second,
		"retrain trigger evaluation cadence (harvest + drift/schedule check; needs a trigger flag below to do anything)")
	retrainEvery := flag.Duration("retrain-every", 0,
		"retrain each corpus-backed wifi bundle on this wall-clock schedule (0 disables the schedule trigger)")
	retrainMaxErrDelta := flag.Float64("retrain-max-error-delta", 0,
		"retrain when a model's rolling re-anchor error exceeds its baseline by this many meters (0 disables the drift trigger)")
	retrainMinSamples := flag.Int64("retrain-min-samples", 50,
		"re-anchor scores needed past the baseline before the drift trigger may fire")
	retrainRetention := flag.Duration("retrain-retention", 168*time.Hour,
		"drop harvested corpus fixes older than this (0 keeps everything)")
	retrainMaxFixes := flag.Int("retrain-max-fixes", 100000,
		"cap each model's corpus at the newest N fixes (0 = unbounded)")
	retrainMinFixes := flag.Int("retrain-min-fixes", 8,
		"refuse to retrain a model with fewer corpus fixes than this")
	flag.Parse()

	// Structured logging: one slog logger feeds the server's own lines,
	// the registry and journal (via the printf adapter), and the tracer's
	// slow-request warnings.
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// Manual lifecycle/retrain overrides run as an admin-plane HTTP
	// client against an already-running server, then exit.
	if *promote != "" || *rollback != "" {
		if *adminAddr == "" {
			fatal("lifecycle override needs -admin-addr pointing at the running server's debug plane")
		}
		model, verb := *promote, "promote"
		if *rollback != "" {
			model, verb = *rollback, "rollback"
		}
		if err := lifecycleOverride(*adminAddr, model, verb); err != nil {
			fatal("lifecycle override", "model", model, "action", verb, "err", err)
		}
		logger.Info("lifecycle override applied", "model", model, "action", verb)
		return
	}
	if *retrainKick != "" {
		if *adminAddr == "" {
			fatal("retrain kick needs -admin-addr pointing at the running server's debug plane")
		}
		if err := retrainOverride(*adminAddr, *retrainKick); err != nil {
			fatal("retrain kick", "model", *retrainKick, "err", err)
		}
		logger.Info("retrain kicked", "model", *retrainKick, "next", "watch /debug/retrain")
		return
	}

	if err := os.MkdirAll(*modelsDir, 0o755); err != nil {
		fatal("creating models dir", "dir", *modelsDir, "err", err)
	}
	if *demo || *demoTiny {
		scale := serve.DemoFull
		if *demoTiny {
			scale = serve.DemoTiny
		}
		if err := serve.TrainDemoBundles(*modelsDir, scale, logf); err != nil {
			fatal("training demo bundles", "err", err)
		}
	}

	reg := serve.NewRegistry(*modelsDir, logf)
	if *checkBundles {
		// Validation mode for CI and deploy pipelines: every bundle in
		// the directory must load (int8 bundles must also re-pass the
		// accuracy gate inside LoadBundle). Exit status is the verdict.
		loaded, _, err := reg.Reload()
		if err != nil {
			fatal("loading bundles", "dir", *modelsDir, "err", err)
		}
		if failed := reg.FailedBundles(); len(failed) > 0 {
			fatal("bundle check failed", "failed", fmt.Sprintf("%v", failed))
		}
		logger.Info("bundle check passed", "bundles", loaded)
		return
	}

	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(obs.Options{
			RingSize:      *traceRing,
			SampleRate:    *traceSample,
			SlowThreshold: time.Duration(*slowMs) * time.Millisecond,
			Logger:        logger,
		})
	}

	// Durable session journal: open and recover BEFORE the engine serves
	// anything, so restored sessions are in place when the listener opens.
	var (
		journal *store.Journal
		rec     *store.Recovery
	)
	if *stateDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsync)
		if err != nil {
			fatal("parsing -fsync", "err", err)
		}
		journal, err = store.Open(store.Config{
			Dir:          *stateDir,
			Fsync:        policy,
			SyncInterval: *syncInterval,
			Logf:         logf,
		})
		if err != nil {
			fatal("opening session journal", "err", err)
		}
		if rec, err = journal.Recover(); err != nil {
			fatal("recovering session journal", "err", err)
		}
		// Recovered lifecycle events drive where Reload places each
		// bundle: a generation that was mid-canary when the process died
		// resumes as canary, a rolled-back one stays retired.
		reg.SetRecoveredStages(serve.RecoveredStages(rec))
	}

	engine := serve.NewEngine(serve.Config{
		Registry:    reg,
		BatchWindow: *batchWindow,
		MaxBatch:    *batchMax,
		SessionTTL:  *sessionTTL,
		Journal:     journal,
		Tracer:      tracer,
		NoTrace:     !*trace,
		MirrorRate:  *mirrorRate,
	})

	// First bundle load AFTER journal recovery (stages resume where they
	// were) and AFTER engine construction (the engine's transition hook is
	// installed, so even bootstrap activations are journaled).
	loaded, _, err := reg.Reload()
	if err != nil {
		fatal("loading bundles", "dir", *modelsDir, "err", err)
	}
	logger.Info("models loaded", "count", loaded, "dir", *modelsDir)
	for _, info := range reg.ListLifecycle() {
		logger.Info("model", "name", info.Name, "kind", info.Kind, "precision", info.Precision,
			"classes", info.Classes, "flops", info.FLOPs, "stage", info.Stage)
	}

	if journal != nil {
		sum := engine.RestoreSessions(rec)
		logger.Info("session journal recovered", "dir", *stateDir, "fsync", *fsync,
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
	if *stateDir != "" {
		corpusDir := *retrainCorpus
		if corpusDir == "" {
			corpusDir = filepath.Join(*stateDir, "retrain")
		}
		retrainMgr = retrain.NewManager(retrain.ManagerConfig{
			StateDir:    *stateDir,
			ModelsDir:   *modelsDir,
			CorpusDir:   corpusDir,
			Retention:   *retrainRetention,
			MaxPerModel: *retrainMaxFixes,
			MinFixes:    *retrainMinFixes,
			Trigger: retrain.TriggerPolicy{
				MaxErrorDeltaM: *retrainMaxErrDelta,
				MinSamples:     *retrainMinSamples,
				Every:          *retrainEvery,
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

	if srv.Batching() {
		logger.Info("micro-batching on", "window", *batchWindow, "max", *batchMax)
	} else {
		logger.Info("micro-batching off")
	}
	if *sessionTTL > 0 {
		logger.Info("session eviction on", "ttl", *sessionTTL)
	} else {
		logger.Info("session eviction off")
	}
	if tracer != nil {
		logger.Info("tracing on", "sample", tracer.SampleRate(), "ring", *traceRing, "slow_ms", *slowMs)
	} else {
		logger.Info("tracing off")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go reg.Watch(ctx, *reload)
	if *lifecycleTick > 0 {
		ctl := &lifecycle.Controller{Registry: reg, Interval: *lifecycleTick, Logf: logf}
		go ctl.Run(ctx)
		logger.Info("promotion controller on", "tick", *lifecycleTick, "mirror_rate", *mirrorRate)
	} else {
		logger.Info("promotion controller off")
	}
	if retrainMgr != nil && (*retrainEvery > 0 || *retrainMaxErrDelta > 0) {
		go retrainMgr.Run(ctx, *retrainTick)
		logger.Info("retrain trigger on", "tick", *retrainTick,
			"every", *retrainEvery, "max_error_delta", *retrainMaxErrDelta, "min_samples", *retrainMinSamples)
	} else if retrainMgr != nil {
		logger.Info("retrain manual-only", "hint", "POST /admin/retrain/{model} or noble-retrain")
	}
	go srv.Sessions().Run(ctx, *sessionSweep)
	if journal != nil {
		go journal.Run(ctx)
		go engine.RunJournalCompaction(ctx, *compactEvery)
	}

	// Opt-in debug plane on its own listener: the full pprof family plus
	// traces, runtime, and metrics, kept off the serving port so fleet
	// traffic can never reach a profile endpoint.
	var adminSrv *http.Server
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal("listening on admin addr", "addr", *adminAddr, "err", err)
		}
		adminSrv = &http.Server{Handler: srv.DebugHandler()}
		logger.Info("debug plane listening", "addr", adminLn.Addr().String())
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug plane serving", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	drained := make(chan struct{})
	go func() {
		<-ctx.Done()
		// Graceful drain: new inference requests get 503 with the
		// structured server_draining envelope (so load balancers and the
		// client SDK fail over immediately) while in-flight requests —
		// including batched passes already queued — run to completion
		// under Shutdown.
		srv.StartDraining()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		if adminSrv != nil {
			adminSrv.Shutdown(shutdownCtx)
		}
		close(drained)
	}()

	// Listen before announcing, and announce the RESOLVED address: with
	// -addr 127.0.0.1:0 the kernel picks a free port, and scripts (the CI
	// crash-recovery test, the perf rig) read it from this log line
	// instead of hard-coding a port that may be taken.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listening", "addr", *addr, "err", err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serving", "err", err)
	}
	if journal != nil {
		// Serve returns the moment Shutdown closes the listener, while
		// in-flight handlers are still appending — wait for the drain to
		// finish before closing the journal, or their final events would
		// race the close and be lost.
		<-drained
		if err := journal.Close(); err != nil {
			logger.Error("closing session journal", "err", err)
		}
	}
	logger.Info("shut down")
}
