package retrain

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"noble/internal/dataset"
	"noble/internal/geo"
	"noble/internal/serve"
	"noble/internal/train"
)

// ErrTooFewFixes is returned when the corpus holds fewer fixes for the
// model than RunOptions.MinFixes — a retrain on a near-empty corpus
// would just reproduce the seed model, so the runner refuses.
var ErrTooFewFixes = errors.New("retrain: too few harvested fixes")

// RunOptions is one retrain of one bundle.
type RunOptions struct {
	// ModelsDir is the bundle directory noble-serve watches; the model's
	// existing manifest supplies the generation spec, training recipe,
	// and precision tier the retrain reproduces.
	ModelsDir string
	// Model is the bundle name to retrain. Must be a WiFi bundle with a
	// synthetic generation spec (the only kind whose architecture can be
	// rebuilt deterministically).
	Model string
	// Corpus supplies the harvested fixes mixed into the training split.
	Corpus *Corpus
	// MinFixes refuses to retrain below this corpus size (default 1).
	MinFixes int
	// Lifecycle, when set, supplies the Target and Policy of the
	// republished bundle's lifecycle.json sidecar; nil keeps the ones the
	// bundle already declares (or the default full-auto pipeline).
	// Either way the publish writes the sidecar with Immediate false, so
	// the new generation enters SHADOW and must earn promotion: nobody
	// has validated these weights yet.
	Lifecycle *serve.LifecycleSpec
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)
}

// RunResult is what a retrain produced.
type RunResult struct {
	Model       string        `json:"model"`
	SeedSamples int           `json:"seed_samples"`
	CorpusFixes int           `json:"corpus_fixes"` // fixes in corpus for the model
	UsedFixes   int           `json:"used_fixes"`   // after dimension filtering
	MeanErrM    float64       `json:"mean_err_m"`   // on the seed test split
	Int8        bool          `json:"int8"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	BundlePath  string        `json:"bundle_path"`
}

// Run retrains one bundle on its seed survey plus the model's harvested
// corpus and republishes it in place. The publish path is the same one
// noble-train uses — including the int8 calibration gate for quantized
// bundles — and the registry's reload places the republished bundle in
// shadow, so the retrained generation serves nothing until the
// lifecycle controller (or an operator) promotes it on live evidence.
func Run(o RunOptions) (*RunResult, error) {
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if o.MinFixes <= 0 {
		o.MinFixes = 1
	}

	raw, err := os.ReadFile(filepath.Join(o.ModelsDir, o.Model, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("reading bundle manifest: %w", err)
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("decoding bundle manifest: %w", err)
	}
	if man.Kind != serve.KindWiFi || man.WiFi == nil {
		return nil, fmt.Errorf("bundle %s is kind %q without a generation spec; only synthetic wifi bundles can be retrained", o.Model, man.Kind)
	}

	// The sidecar this publish writes: never Immediate, whatever the
	// bundle or the caller declared.
	lifecycle, err := serve.ReadLifecycleSpec(filepath.Join(o.ModelsDir, o.Model))
	if err != nil {
		return nil, err
	}
	if o.Lifecycle != nil {
		lifecycle = *o.Lifecycle
	}
	lifecycle.Immediate = false

	ds, err := man.WiFi.BuildWiFiDataset()
	if err != nil {
		return nil, fmt.Errorf("rebuilding seed survey: %w", err)
	}

	fixes := o.Corpus.Fixes(o.Model)
	if len(fixes) < o.MinFixes {
		return nil, fmt.Errorf("%w: %d for %s (want >= %d)", ErrTooFewFixes, len(fixes), o.Model, o.MinFixes)
	}
	extra, skipped := FixesToSamples(fixes, ds)
	if skipped > 0 {
		logf("retrain %s: skipped %d fixes with mismatched fingerprint dimension", o.Model, skipped)
	}
	if len(extra) < o.MinFixes {
		return nil, fmt.Errorf("%w: %d usable for %s (want >= %d)", ErrTooFewFixes, len(extra), o.Model, o.MinFixes)
	}

	opts := train.Options{
		Data:       ds,
		Spec:       man.WiFi,
		Config:     man.WiFi.Config,
		Extra:      extra,
		BundleDir:  o.ModelsDir,
		BundleName: o.Model,
		Lifecycle:  &lifecycle,
		Printf: func(format string, args ...any) {
			logf("retrain %s: %s", o.Model, strings.TrimSuffix(fmt.Sprintf(format, args...), "\n"))
		},
	}
	if man.Precision != nil {
		opts.Precision = man.Precision.Mode
		opts.ErrorBudgetPct = man.Precision.ErrorBudgetPct
	}

	start := time.Now()
	res, err := train.Run(opts)
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Model:       o.Model,
		SeedSamples: len(ds.Train),
		CorpusFixes: len(fixes),
		UsedFixes:   len(extra),
		Int8:        res.Calib != nil,
		Elapsed:     time.Since(start),
		BundlePath:  res.BundlePath,
	}
	if res.TestStats != nil {
		out.MeanErrM = res.TestStats.Mean
	}
	return out, nil
}

// FixesToSamples converts corpus fixes into training samples for the
// given seed survey: the fingerprint is already a normalized
// model-input vector (it is byte-for-byte what the session submitted
// and the journal recorded), the fix position is the label, and
// building/floor — which fixes don't carry — are copied from the
// nearest seed training sample so the auxiliary heads keep valid
// targets. Fixes whose fingerprint dimension doesn't match the survey
// (produced by a different model) are skipped and counted.
func FixesToSamples(fixes []Fix, ds *dataset.WiFi) (samples []dataset.WiFiSample, skipped int) {
	for i := range fixes {
		f := &fixes[i]
		if len(f.Fingerprint) != ds.NumWAPs {
			skipped++
			continue
		}
		b, fl := nearestLabels(ds, f.X, f.Y)
		samples = append(samples, dataset.WiFiSample{
			Features: f.Fingerprint,
			Pos:      geo.Point{X: f.X, Y: f.Y},
			Building: b,
			Floor:    fl,
		})
	}
	return samples, skipped
}

// nearestLabels finds the building/floor of the seed training sample
// closest to (x, y).
func nearestLabels(ds *dataset.WiFi, x, y float64) (building, floor int) {
	best := -1.0
	for i := range ds.Train {
		s := &ds.Train[i]
		dx, dy := s.Pos.X-x, s.Pos.Y-y
		d := dx*dx + dy*dy
		if best < 0 || d < best {
			best = d
			building, floor = s.Building, s.Floor
		}
	}
	return building, floor
}
