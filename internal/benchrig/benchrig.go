// Package benchrig is the deterministic performance harness behind
// cmd/noble-perf and the CI perf gate: it boots a real serve.Engine
// behind a real HTTP listener, drives named workload scenarios through
// the public client SDK — the same code path a device fleet uses — and
// reduces each scenario to machine-readable numbers (throughput,
// latency quantiles, server-side batch occupancy, error classes) for
// BENCH.json. The driving half (Drive: worker loops, pacing, recorder,
// error classes) is also the whole of cmd/noble-loadgen, pointed at a
// server somebody else booted — the repo has one traffic generator.
//
// Methodology, shared by every scenario:
//
//   - Each pass runs against a FRESH engine and listener, so no state
//     (sessions, batch counters, connection pools) leaks between passes
//     and the cold-start scenario is genuinely cold.
//   - Every scenario runs one discarded warm-up pass, then Runs measured
//     passes; the reported numbers come from the BEST pass by throughput
//     (peak). Under interference noise — CI runners, shared containers —
//     the peak is the least-disturbed observation: a descheduled pass
//     cannot drag the number down, while a real regression depresses
//     every pass and therefore still moves it. Every pass's throughput
//     is retained in the report for inspection.
//   - Payload generation is seeded, so the request stream is identical
//     run to run and machine to machine.
//   - A measured pass shorter than MinPassDuration, or with zero
//     successful operations, fails the run instead of producing numbers
//     too thin to gate on.
package benchrig

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"noble/internal/obs"
	"noble/internal/serve"
	"noble/internal/store"
)

// EngineOptions selects the serving configuration a scenario measures.
type EngineOptions struct {
	// BatchWindow is the micro-batch coalescing window (0 disables
	// batching — the unbatched baseline scenarios).
	BatchWindow time.Duration
	// MaxBatch caps rows per coalesced pass (0 = engine default).
	MaxBatch int
	// Journal turns on durable sessions: each pass journals into a fresh
	// temporary WAL directory with -fsync=interval semantics, deleted
	// when the pass ends.
	Journal bool
	// NoTrace disables request tracing for this scenario (the engine
	// default is tracing on at full sampling). The overhead-baseline
	// runs use it to put a number on the tracer's cost.
	NoTrace bool
	// MirrorRate samples this fraction of traffic through staged
	// generations for live shadow evaluation (0 disables mirroring).
	MirrorRate float64
	// ShadowWiFi stages a shadow copy of the fp64 WiFi model — same
	// weights, fresh lifecycle state — before traffic starts, so a
	// MirrorRate scenario has a staged generation to mirror through.
	ShadowWiFi bool
}

// Scenario is one named workload. Run drives load until env.Next()
// reports false and returns an error only for harness malfunction (cannot connect,
// cannot open a stream) — per-request failures are data, recorded in
// env.Rec, not errors.
type Scenario struct {
	Name        string
	Description string
	Concurrency int
	Unit        string   // throughput unit: "req/s", "steps/s", "ops/s"
	Kinds       []string // batcher kinds to snapshot ("localize", "track")
	Engine      EngineOptions
	Run         func(env *Env) error

	// OpsClasses lists error classes that still count as completed
	// operations for throughput. The deadline scenario sets it to
	// {"deadline"}: an intentionally expired request exercised the drop
	// path exactly as designed, and excluding it would couple the
	// throughput number to how many requests happened to expire — pure
	// scheduling noise. The classes still appear under errors in the
	// report.
	OpsClasses []string
}

// Rig runs scenarios. NewRegistry must return a freshly loaded model
// registry per call (one per pass); everything else has usable defaults
// via Preset.
type Rig struct {
	NewRegistry func() (*serve.Registry, error)
	Logf        func(format string, args ...any) // nil = silent

	Seed            int64
	NoTrace         bool          // disable tracing in every pass (overhead baseline runs)
	PassDuration    time.Duration // measured pass length
	WarmupDuration  time.Duration // discarded warm-up pass length
	MinPassDuration time.Duration // floor below which a pass is invalid
	Runs            int           // measured passes per scenario
}

// Preset returns rig timing parameters by name: "ci" keeps the whole
// suite around a minute for the regression gate; "full" runs longer
// passes for stabler numbers when recording a baseline worth publishing.
func Preset(name string) (Rig, error) {
	switch name {
	case "ci":
		return Rig{
			PassDuration:    900 * time.Millisecond,
			WarmupDuration:  300 * time.Millisecond,
			MinPassDuration: 250 * time.Millisecond,
			Runs:            3,
		}, nil
	case "full":
		return Rig{
			PassDuration:    3 * time.Second,
			WarmupDuration:  time.Second,
			MinPassDuration: time.Second,
			Runs:            3,
		}, nil
	default:
		return Rig{}, fmt.Errorf("unknown preset %q (want ci or full)", name)
	}
}

func (r *Rig) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// RunSuite runs every scenario and collects results in order.
func (r *Rig) RunSuite(ctx context.Context, scenarios []Scenario) ([]ScenarioResult, error) {
	results := make([]ScenarioResult, 0, len(scenarios))
	for _, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := r.RunScenario(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// passOutcome is one pass's raw numbers before peak selection.
type passOutcome struct {
	counts  Counts
	ops     int64 // operations counted toward throughput (Ok + OpsClasses)
	elapsed time.Duration
	batch   map[string]serve.BatchSnapshot
	stages  map[string]obs.StageStats
}

func (p passOutcome) throughput() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ops) / p.elapsed.Seconds()
}

// RunScenario runs one warm-up pass plus r.Runs measured passes and
// reports the peak pass.
func (r *Rig) RunScenario(ctx context.Context, sc Scenario) (ScenarioResult, error) {
	var zero ScenarioResult
	if r.Runs <= 0 {
		return zero, fmt.Errorf("rig: Runs must be positive")
	}
	r.logf("scenario %s: warmup %v + %d x %v", sc.Name, r.WarmupDuration, r.Runs, r.PassDuration)
	if r.WarmupDuration > 0 {
		if _, err := r.runPass(ctx, sc, r.WarmupDuration); err != nil {
			return zero, fmt.Errorf("warmup: %w", err)
		}
	}
	passes := make([]passOutcome, 0, r.Runs)
	for i := 0; i < r.Runs; i++ {
		p, err := r.runPass(ctx, sc, r.PassDuration)
		if err != nil {
			return zero, fmt.Errorf("pass %d: %w", i+1, err)
		}
		// Noise guards: a pass that ran shorter than the floor, or that
		// completed nothing, cannot produce a throughput worth gating on.
		if p.elapsed < r.MinPassDuration {
			return zero, fmt.Errorf("pass %d ran %v, below the %v floor", i+1, p.elapsed, r.MinPassDuration)
		}
		if p.counts.Ok == 0 {
			return zero, fmt.Errorf("pass %d completed zero successful operations (%d errors: %v)",
				i+1, p.counts.Errors, p.counts.ByClass)
		}
		r.logf("scenario %s pass %d: %.0f %s, p99 %.2f ms, %d errors",
			sc.Name, i+1, p.throughput(), sc.Unit, p.counts.Latency.P99, p.counts.Errors)
		passes = append(passes, p)
	}

	// Peak pass by throughput (see the package comment on why peak, not
	// median, under interference noise).
	best := passes[0]
	for _, p := range passes[1:] {
		if p.throughput() > best.throughput() {
			best = p
		}
	}

	res := ScenarioResult{
		Name:         sc.Name,
		Description:  sc.Description,
		Concurrency:  sc.Concurrency,
		Unit:         sc.Unit,
		ElapsedSec:   best.elapsed.Seconds(),
		Ok:           best.counts.Ok,
		Errors:       best.counts.Errors,
		ErrorClasses: best.counts.ByClass,
		Throughput:   best.throughput(),
		LatencyMs:    best.counts.Latency,
	}
	for _, p := range passes {
		res.RunThroughputs = append(res.RunThroughputs, p.throughput())
	}
	if len(sc.Kinds) > 0 {
		res.Batch = make(map[string]BatchReport, len(sc.Kinds))
		for _, kind := range sc.Kinds {
			res.Batch[kind] = batchReport(best.batch[kind])
		}
	}
	if len(best.stages) > 0 {
		res.Stages = make(map[string]StageReport, len(best.stages))
		for stage, st := range best.stages {
			res.Stages[stage] = stageReport(st)
		}
	}
	return res, nil
}

// stageShadowWiFi stages a shadow generation of the first fp64 WiFi
// model: identical weights under a fresh lifecycle state, so the
// shadow-mirror scenario measures pure mirroring overhead — the
// sampled re-submit, the extra coalesced passes, the divergence
// accounting — with zero model-cost difference between generations.
func stageShadowWiFi(reg *serve.Registry) error {
	for _, info := range reg.List() {
		if info.Kind != "wifi" || info.Precision == "int8" {
			continue
		}
		m, ok := reg.Get(info.Name)
		if !ok {
			continue
		}
		return reg.AddStaged(&serve.Model{Name: m.Name, Kind: m.Kind, WiFi: m.WiFi}, serve.StageShadow)
	}
	return fmt.Errorf("no fp64 wifi model to stage a shadow of")
}

// runPass boots a fresh server, drives the scenario at it for dur, and
// tears everything down.
func (r *Rig) runPass(ctx context.Context, sc Scenario, dur time.Duration) (passOutcome, error) {
	var zero passOutcome
	reg, err := r.NewRegistry()
	if err != nil {
		return zero, fmt.Errorf("loading models: %w", err)
	}
	if sc.Engine.ShadowWiFi {
		if err := stageShadowWiFi(reg); err != nil {
			return zero, err
		}
	}
	cfg := serve.Config{
		Registry:    reg,
		BatchWindow: sc.Engine.BatchWindow,
		MaxBatch:    sc.Engine.MaxBatch,
		NoTrace:     sc.Engine.NoTrace || r.NoTrace,
		MirrorRate:  sc.Engine.MirrorRate,
	}

	passCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Durable-session scenarios journal into a throwaway WAL dir with
	// the production interval-fsync policy.
	var walDir string
	if sc.Engine.Journal {
		walDir, err = os.MkdirTemp("", "noble-perf-wal-")
		if err != nil {
			return zero, err
		}
		defer os.RemoveAll(walDir)
		journal, err := store.Open(store.Config{
			Dir:          walDir,
			Fsync:        store.FsyncInterval,
			SyncInterval: 100 * time.Millisecond,
			Logf:         func(string, ...any) {}, // journal chatter is not a perf result
		})
		if err != nil {
			return zero, fmt.Errorf("opening pass journal: %w", err)
		}
		defer journal.Close()
		if _, err := journal.Recover(); err != nil {
			return zero, fmt.Errorf("recovering fresh journal: %w", err)
		}
		go journal.Run(passCtx)
		cfg.Journal = journal
	}

	engine := serve.NewEngine(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return zero, err
	}
	httpSrv := &http.Server{Handler: serve.NewServer(engine).Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	d, err := Drive(passCtx, "http://"+ln.Addr().String(), Load{
		Run: sc.Run, Concurrency: sc.Concurrency, Duration: dur, Seed: r.Seed, FixEvery: fixEvery,
	})
	if err != nil {
		return zero, err
	}

	out := passOutcome{counts: d.Counts, elapsed: d.Elapsed}
	out.ops = out.counts.Ok
	for _, class := range sc.OpsClasses {
		out.ops += out.counts.ByClass[class]
	}
	if len(sc.Kinds) > 0 {
		out.batch = make(map[string]serve.BatchSnapshot, len(sc.Kinds))
		for _, kind := range sc.Kinds {
			// Fresh engine per pass, so the snapshot IS the pass delta.
			out.batch[kind] = engine.BatchSnapshot(kind)
		}
	}
	if t := engine.Tracer(); t != nil {
		// Same fresh-engine argument: the tracer saw only this pass, so
		// its per-stage histograms are the pass's latency attribution.
		out.stages = t.StageSnapshot()
	}
	return out, nil
}
