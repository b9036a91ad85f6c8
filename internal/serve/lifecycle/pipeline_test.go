package lifecycle_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"noble/internal/core"
	"noble/internal/serve"
	"noble/internal/serve/lifecycle"
	"noble/internal/store"
)

// The deployment pipeline end to end, in one process: the tiny demo
// bundles served by an engine with a journal and every localize row
// mirrored through the staged generation. Reload stands in for the
// directory watcher and Tick for the controller's clock.

// pipeline is one serving process over a models and a state directory.
type pipeline struct {
	reg     *serve.Registry
	eng     *serve.Engine
	journal *store.Journal
	ctl     *lifecycle.Controller
	survey  [][]float64 // demo-wifi's recorded test fingerprints
}

// bootPipeline opens (and recovers) the journal, then loads the bundles,
// in noble-serve's order: stages recorded in the journal decide where
// each bundle is placed.
func bootPipeline(t *testing.T, models, state string) *pipeline {
	t.Helper()
	j, err := store.Open(store.Config{Dir: state, Fsync: store.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := j.Recover()
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(models, t.Logf)
	reg.SetRecoveredStages(serve.RecoveredStages(rec))
	p := &pipeline{
		reg:     reg,
		eng:     serve.NewEngine(serve.Config{Registry: reg, Journal: j, MirrorRate: 1}),
		journal: j,
		ctl:     &lifecycle.Controller{Registry: reg, Logf: t.Logf},
	}
	p.reload(t)
	ds, err := readManifest(t, models).WiFi.BuildWiFiDataset()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Test {
		p.survey = append(p.survey, s.Features)
	}
	return p
}

func (p *pipeline) reload(t *testing.T) {
	t.Helper()
	if _, _, err := p.reg.Reload(); err != nil {
		t.Fatal(err)
	}
}

// drive localizes survey fingerprints and ticks the controller until
// done holds. Mirrored evidence is recorded off the request path, so
// this is a bounded poll: it fails after a minute.
func (p *pipeline) drive(t *testing.T, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for i := 0; !done(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached in a minute; deployments %+v", what, p.reg.Deployments())
		}
		q := serve.LocalizeQuery{Model: "demo-wifi", Fingerprints: [][]float64{p.survey[i%len(p.survey)]}}
		if _, err := p.eng.Localize(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		p.ctl.Tick()
		time.Sleep(time.Millisecond)
	}
}

func (p *pipeline) active(t *testing.T) string {
	t.Helper()
	m, ok := p.reg.Get("demo-wifi")
	if !ok {
		t.Fatal("demo-wifi has no active generation")
	}
	return m.BundleID
}

// staged returns the staged generation's stage, bundle ID and evidence
// ("" when nothing is staged).
func (p *pipeline) staged() (stage serve.Stage, id string, samples int64) {
	m, ok := p.reg.Staged("demo-wifi")
	if !ok {
		return "", "", 0
	}
	return m.Stage, m.BundleID, m.Stats.Snapshot().Samples()
}

// transitions reads noble_lifecycle_transitions_total for demo-wifi.
func (p *pipeline) transitions(to serve.Stage) int {
	var b bytes.Buffer
	p.reg.WritePrometheus(&b)
	prefix := fmt.Sprintf(`noble_lifecycle_transitions_total{model="demo-wifi",to=%q} `, to)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return 0
}

func readManifest(t *testing.T, models string) serve.Manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(models, "demo-wifi", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man serve.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// republish writes demo-wifi as a new generation with a lifecycle.json
// capped at target. A good generation is the bundle's own recipe with
// the seed shifted by seedSkew, judged by a loose policy. A degraded one
// trains one epoch at a vanishing learning rate: its weights stay at
// their random initialization, its answers collapse toward the survey
// centroid, and a tight policy must roll it back. The manifest keeps
// the real recipe either way, so a later good republish reads it.
func republish(t *testing.T, models string, degraded bool, seedSkew int64, target serve.Stage) {
	t.Helper()
	man := readManifest(t, models)
	ds, err := man.WiFi.BuildWiFiDataset()
	if err != nil {
		t.Fatal(err)
	}
	man.WiFi.Config.Seed += seedSkew
	cfg := man.WiFi.Config
	maxErr := 500.0
	if degraded {
		cfg.Epochs, cfg.LR, cfg.LRDecay = 1, 1e-12, 1
		maxErr = 0.5
	}
	model := core.TrainWiFi(ds, cfg)
	spec, err := json.Marshal(serve.LifecycleSpec{Target: string(target), Policy: serve.LifecyclePolicy{
		MinShadowRequests: 40, MinCanaryRequests: 40, MaxErrorDeltaM: maxErr, MaxP99DeltaMS: 10000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = serve.WriteBundle(models, "demo-wifi", man, func(f *os.File) error { return model.Save(f) },
		serve.ExtraFile{Name: "lifecycle.json", Write: func(f *os.File) error { _, err := f.Write(spec); return err }})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelineRollsBackPromotesAndResumes walks demo-wifi through the
// three paths of the deployment pipeline: a degraded generation is
// rolled back from canary, a good one is promoted to active, and a
// canary-capped one resumes at canary after the process is abandoned
// with its journal unclosed.
func TestPipelineRollsBackPromotesAndResumes(t *testing.T) {
	models, state := t.TempDir(), t.TempDir()
	if err := serve.TrainDemoBundles(models, serve.DemoTiny, t.Logf); err != nil {
		t.Fatal(err)
	}
	p := bootPipeline(t, models, state)
	if stage, _, _ := p.staged(); stage != "" {
		t.Fatalf("boot staged a %s generation", stage)
	}
	base := p.active(t)

	// A: the degraded generation is mirrored into canary, then rolled back.
	republish(t, models, true, 2, serve.StageActive)
	p.reload(t)
	if stage, _, _ := p.staged(); stage != serve.StageShadow {
		t.Fatalf("degraded generation placed at %q, want shadow", stage)
	}
	p.drive(t, "degraded rollback", func() bool { stage, _, _ := p.staged(); return stage == "" })
	if got := p.active(t); got != base {
		t.Fatalf("degraded generation reached active: %s, want %s", got, base)
	}
	if n := p.transitions(serve.StageCanary); n < 1 {
		t.Fatalf("%d transitions to canary: the shadow never filled its evidence window", n)
	}
	if n := p.transitions(serve.StageRetired); n < 1 {
		t.Fatalf("%d transitions to retired: the rollback was not the controller's", n)
	}

	// B: the good generation is promoted to active.
	republish(t, models, false, 1, serve.StageActive)
	p.reload(t)
	p.drive(t, "good promotion", func() bool { stage, _, _ := p.staged(); return stage == "" && p.active(t) != base })
	promoted := p.active(t)
	if n := p.transitions(serve.StageActive); n < 2 {
		t.Fatalf("%d transitions to active, want the boot load and the promotion", n)
	}

	// C: a canary-capped generation holds at canary with its evidence,
	// and a fresh process on the same directories resumes it there.
	republish(t, models, false, 3, serve.StageCanary)
	p.reload(t)
	var canary string
	p.drive(t, "canary with 40 samples", func() bool {
		stage, id, n := p.staged()
		canary = id
		return stage == serve.StageCanary && n >= 40
	})
	if err := p.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.journal.Close() })

	q := bootPipeline(t, models, state)
	defer q.journal.Close()
	if stage, id, _ := q.staged(); stage != serve.StageCanary || id != canary {
		t.Fatalf("after restart staged %q %s, want canary %s", stage, id, canary)
	}
	if got := q.active(t); got != promoted {
		t.Fatalf("after restart active %s, want the promoted %s", got, promoted)
	}
	if _, err := q.eng.Localize(context.Background(), serve.LocalizeQuery{Model: "demo-wifi", Fingerprints: q.survey[:1]}); err != nil {
		t.Fatalf("restored active does not serve: %v", err)
	}
}
