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
// that owns the journal. Retrained bundles NEVER serve directly:
// publishing is the only write this tool performs against the
// deployment, every publish rewrites the bundle's lifecycle.json with
// immediate off (keeping its target and policy unless -target replaces
// them), and promotion stays with the lifecycle controller.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"noble/internal/retrain"
	"noble/internal/serve"
)

// options is the flag surface, pinned by the golden help test. The corpus
// location (<state-dir>/retrain), retention and per-model cap are the
// retrain package's, shared with noble-serve's in-process manager.
type options struct {
	stateDir, models, model, target string
	harvestOnly                     bool
	minFixes                        int
	polShadow, polCanary            int64
	polErr, polP99                  float64
}

// newFlagSet declares every flag on a fresh set, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("noble-retrain", flag.ExitOnError) // -h exits 0, a bad flag 2
	fs.StringVar(&o.stateDir, "state-dir", "", "session WAL directory to harvest; the corpus lives under it (required)")
	fs.StringVar(&o.models, "models", "", "bundle directory to retrain into (required unless -harvest-only)")
	fs.StringVar(&o.model, "model", "", "comma-separated wifi bundles to retrain (default: every retrainable bundle with corpus fixes)")
	fs.BoolVar(&o.harvestOnly, "harvest-only", false, "harvest into the corpus and stop")
	fs.IntVar(&o.minFixes, "min-fixes", 1, "refuse to retrain a model with fewer corpus fixes than this")
	fs.StringVar(&o.target, "target", "", "write a lifecycle.json sidecar with this promotion target (shadow, canary, or active; empty keeps the bundle's own target and policy)")
	fs.Int64Var(&o.polShadow, "policy-min-shadow", 0, "sidecar policy: mirrored samples a shadow needs before canary (0 = registry default)")
	fs.Int64Var(&o.polCanary, "policy-min-canary", 0, "sidecar policy: canary evaluation window, in samples (0 = registry default)")
	fs.Float64Var(&o.polErr, "policy-max-error-delta", 0, "sidecar policy: max live error delta vs active, meters (0 = registry default)")
	fs.Float64Var(&o.polP99, "policy-max-p99-delta", 0, "sidecar policy: max p99 pass-latency delta, ms (0 = registry default)")
	return fs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("noble-retrain: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, harvest, then retrain each
// target, printing one line per published bundle to stdout. Progress
// goes to the log.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.stateDir == "" {
		return errors.New("-state-dir is required")
	}
	if o.models == "" && !o.harvestOnly {
		return errors.New("-models is required (or pass -harvest-only)")
	}
	var spec *serve.LifecycleSpec
	switch o.target {
	case "":
	case "shadow", "canary", "active":
		spec = &serve.LifecycleSpec{
			Target: o.target,
			Policy: serve.LifecyclePolicy{
				MinShadowRequests: o.polShadow,
				MinCanaryRequests: o.polCanary,
				MaxErrorDeltaM:    o.polErr,
				MaxP99DeltaMS:     o.polP99,
			},
		}
	default:
		return fmt.Errorf("unknown -target %q (want shadow, canary, or active)", o.target)
	}

	mgr := retrain.NewManager(retrain.ManagerConfig{
		StateDir:  o.stateDir,
		ModelsDir: o.models,
		MinFixes:  o.minFixes,
		Lifecycle: spec,
		Logf:      log.Printf,
	})

	// Harvest, then retrain each target. An empty corpus is a
	// hard failure — it means the WAL holds no fingerprint-carrying
	// fixes (or the wrong -state-dir), and every downstream step would
	// silently train on seed data alone.
	stats, err := mgr.HarvestNow()
	if err != nil {
		return fmt.Errorf("harvest: %w", err)
	}
	log.Printf("harvest: %d sessions scanned, %d fixes visible, %d new, %d pruned, corpus now %d",
		stats.Sessions, stats.Scanned, stats.Added, stats.Pruned, stats.Total)
	if stats.Total == 0 {
		return fmt.Errorf("corpus under %s is empty after harvest — no re-anchor fixes in its session WAL", o.stateDir)
	}
	if o.harvestOnly {
		return nil
	}

	// The bundles to retrain: the -model list, or every corpus model
	// with a retrainable wifi bundle on disk.
	targets := mgr.Targets()
	if o.model != "" {
		targets = strings.Split(o.model, ",")
	}
	if len(targets) == 0 {
		return errors.New("no retrainable wifi bundles with corpus fixes (pass -model to pick explicitly)")
	}
	for _, model := range targets {
		rec, err := mgr.RunOnce(model, "cli")
		if err != nil {
			return err
		}
		res := rec.Result
		fmt.Fprintf(stdout, "retrained %s: %d seed + %d harvested samples, mean %.2f m, published to %s (awaiting promotion from shadow)\n",
			model, res.SeedSamples, res.UsedFixes, res.MeanErrM, res.BundlePath)
	}
	return nil
}
