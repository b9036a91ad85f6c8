// Command noble-replay re-runs a recorded noble-serve session journal
// against a fresh Engine and reports end-to-end trajectory divergence
// versus the recorded run — turning any production trace captured with
// `noble-serve -state-dir` into an offline benchmark and regression
// scenario.
//
// Usage:
//
//	noble-replay -journal ./state -models ./models [-speed 0] [-eps 0]
//
// Every recorded session is replayed concurrently (as its traffic was),
// each event in order, through the same engine entry points the HTTP
// handlers use, on an engine at serve.Config's defaults: each replayed
// call runs its own forward pass. By the batch-size contract (DESIGN.md
// §2) a row's answer does not depend on the pass it rode in, so the live
// server's coalesced answers must come back exactly. -speed scales the
// recorded timeline (1 = real time, 10 = ten times faster); the default
// 0 replays as fast as possible. Each replayed step's decoded estimate is
// compared with the recorded one: with the same model bundles the
// forward pass is deterministic and the report shows zero divergence, so
// a non-zero report after a model or code change is a behavioral diff
// against recorded production traffic. Exits non-zero when any step
// diverged beyond -eps or any replay call failed, so it slots into CI
// directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"noble/internal/serve"
	"noble/internal/store"
)

// The flag surface, pinned by the golden help test.
var (
	journalDir = flag.String("journal", "", "state directory recorded by noble-serve -state-dir (required)")
	modelsDir  = flag.String("models", "models", "bundle directory with the models the journal was recorded against")
	speed      = flag.Float64("speed", 0, "timeline multiplier: 1 = recorded pacing, 10 = 10x, 0 = as fast as possible")
	eps        = flag.Float64("eps", 0, "divergence tolerance in position units (0 = exact)")
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	flag.Parse()
	if *journalDir == "" {
		fatal("-journal is required")
	}

	rec, err := store.Load(*journalDir)
	if err != nil {
		fatal("loading journal", "dir", *journalDir, "err", err)
	}
	if len(rec.Histories) == 0 {
		fatal("journal holds no sessions", "dir", *journalDir)
	}

	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	reg := serve.NewRegistry(*modelsDir, logf)
	if _, _, err := reg.Reload(); err != nil {
		fatal("loading bundles", "dir", *modelsDir, "err", err)
	}
	engine := serve.NewEngine(serve.Config{Registry: reg})

	rep, err := serve.ReplayJournal(context.Background(), engine, rec, serve.ReplayOptions{
		Speed: *speed, Eps: *eps,
	})
	if err != nil {
		fatal("replay", "err", err)
	}

	pace := "as fast as possible"
	if *speed > 0 {
		pace = fmt.Sprintf("%gx recorded pacing", *speed)
	}
	stepsPerSec := float64(rep.Steps) / rep.Elapsed.Seconds()
	fmt.Printf("noble-replay report\n")
	fmt.Printf("  journal     %s: %d session(s) (%d from snapshot, %d skipped), %d live / %d closed in record\n",
		*journalDir, rep.Sessions, rep.Seeded, rep.Skipped, rec.Stats.Live, rec.Stats.Closed)
	fmt.Printf("  recorded    %d steps, %d re-anchors, %d closes over %v\n",
		rep.Steps, rep.ReAnchors, rep.Closes, rep.RecordedSpan.Round(time.Millisecond))
	fmt.Printf("  replayed    in %v at %s (%.1f steps/s), %d call error(s)\n",
		rep.Elapsed.Round(time.Millisecond), pace, stepsPerSec, rep.Errors)
	fmt.Printf("  divergence  %d/%d steps beyond eps=%g; max=%.6g mean=%.6g\n",
		rep.DivergedSteps, rep.ComparedSteps, *eps, rep.MaxDivergence, rep.MeanDivergence())
	fmt.Printf("  final       %d/%d live sessions ended within eps of the recorded position\n",
		rep.FinalCompared-rep.FinalDiverged, rep.FinalCompared)

	if rep.DivergedSteps > 0 || rep.FinalDiverged > 0 || rep.Errors > 0 {
		os.Exit(1)
	}
}
