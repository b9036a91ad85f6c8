// Command noble-retrain closes the model lifecycle loop from outside
// the server: it harvests re-anchor fixes from a noble-serve session
// WAL into a versioned training corpus, retrains the WiFi bundle(s)
// that produced them on seed data + corpus, and republishes into the
// bundle directory — where the serving registry stages the new
// generation in SHADOW and the lifecycle controller promotes or
// discards it on live evidence. See DESIGN.md §11 and
// docs/OPERATIONS.md.
//
// One-shot (harvest, then retrain each target):
//
//	noble-retrain -state-dir state/ -models models/
//	noble-retrain -state-dir state/ -models models/ -harvest-only
//	noble-retrain -state-dir state/ -models models/ -model demo-wifi \
//	    -target active -policy-min-shadow 40 -policy-min-canary 40
//
// This is the cron form of the loop; the daemon form is noble-serve's
// in-process manager (-retrain-every / -retrain-max-error-delta), which
// reads the drift evidence straight from its registry.
//
// The WAL scan is read-only, so a run is safe against the live server
// that owns the journal. Retrained bundles NEVER serve
// directly: publishing is the only write this tool performs against
// the deployment, and promotion stays with the lifecycle controller.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"noble/internal/retrain"
	"noble/internal/serve"
)

// The flag surface, pinned by the golden help test. The corpus location
// (<state-dir>/retrain), retention and per-model cap are the retrain
// package's, shared with noble-serve's in-process manager.
var (
	stateDir    = flag.String("state-dir", "", "session WAL directory to harvest; the corpus lives under it (required)")
	models      = flag.String("models", "", "bundle directory to retrain into (required unless -harvest-only)")
	modelFlag   = flag.String("model", "", "comma-separated wifi bundles to retrain (default: every retrainable bundle with corpus fixes)")
	harvestOnly = flag.Bool("harvest-only", false, "harvest into the corpus and stop")
	minFixes    = flag.Int("min-fixes", 1, "refuse to retrain a model with fewer corpus fixes than this")
	target      = flag.String("target", "", "write a lifecycle.json sidecar with this promotion target (shadow, canary, or active; empty keeps the bundle's existing sidecar)")
	polShadow   = flag.Int64("policy-min-shadow", 0, "sidecar policy: mirrored samples a shadow needs before canary (0 = registry default)")
	polCanary   = flag.Int64("policy-min-canary", 0, "sidecar policy: canary evaluation window, in samples (0 = registry default)")
	polErr      = flag.Float64("policy-max-error-delta", 0, "sidecar policy: max live error delta vs active, meters (0 = registry default)")
	polP99      = flag.Float64("policy-max-p99-delta", 0, "sidecar policy: max p99 pass-latency delta, ms (0 = registry default)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("noble-retrain: ")
	flag.Parse()

	if *stateDir == "" {
		log.Fatal("-state-dir is required")
	}
	if *models == "" && !*harvestOnly {
		log.Fatal("-models is required (or pass -harvest-only)")
	}
	var spec *serve.LifecycleSpec
	switch *target {
	case "":
	case "shadow", "canary", "active":
		spec = &serve.LifecycleSpec{
			Target: *target,
			Policy: serve.LifecyclePolicy{
				MinShadowRequests: *polShadow,
				MinCanaryRequests: *polCanary,
				MaxErrorDeltaM:    *polErr,
				MaxP99DeltaMS:     *polP99,
			},
		}
	default:
		log.Fatalf("unknown -target %q (want shadow, canary, or active)", *target)
	}

	mgr := retrain.NewManager(retrain.ManagerConfig{
		StateDir:  *stateDir,
		ModelsDir: *models,
		MinFixes:  *minFixes,
		Lifecycle: spec,
		Logf:      log.Printf,
	})

	// Harvest, then retrain each target. An empty corpus is a
	// hard failure — it means the WAL holds no fingerprint-carrying
	// fixes (or the wrong -state-dir), and every downstream step would
	// silently train on seed data alone.
	stats, err := mgr.HarvestNow()
	if err != nil {
		log.Fatalf("harvest: %v", err)
	}
	log.Printf("harvest: %d sessions scanned, %d fixes visible, %d new, %d pruned, corpus now %d",
		stats.Sessions, stats.Scanned, stats.Added, stats.Pruned, stats.Total)
	if stats.Total == 0 {
		log.Fatalf("corpus under %s is empty after harvest — no re-anchor fixes in its session WAL", *stateDir)
	}
	if *harvestOnly {
		return
	}

	// The bundles to retrain: the -model list, or every corpus model
	// with a retrainable wifi bundle on disk.
	targets := mgr.Targets()
	if *modelFlag != "" {
		targets = strings.Split(*modelFlag, ",")
	}
	if len(targets) == 0 {
		log.Fatal("no retrainable wifi bundles with corpus fixes (pass -model to pick explicitly)")
	}
	for _, model := range targets {
		rec, err := mgr.RunOnce(model, "cli")
		if err != nil {
			log.Fatal(err)
		}
		res := rec.Result
		fmt.Printf("retrained %s: %d seed + %d harvested samples, mean %.2f m, published to %s (awaiting promotion from shadow)\n",
			model, res.SeedSamples, res.UsedFixes, res.MeanErrM, res.BundlePath)
	}
}
