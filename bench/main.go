// Command bench is the repository's benchmark: four workloads against real
// serve.Engines in one process, five end-to-end metrics measured untraced
// and reported as medians over interleaved slices, and per-layer metrics
// from a traced run plus a ladder that times each package's public
// functions from outside. Every output is checked against a reference
// computed by calling the models directly. README.md documents every
// workload and metric; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
// Usage:
//
//	go run ./bench                          # all workloads, end to end and per layer
//	go run ./bench -workload fleet_open     # one workload
//	go run ./bench -seed 7                  # other payloads and arrivals
//	go run ./bench -aa 3                    # A/A check: spread of 3 sets' medians against the bounds
//	go run ./bench -smoke                   # every code path in a few seconds, numbers meaningless
//
// The PR driver runs `go run ./bench --workload W --seed N --seconds S
// --trace 0|1`: one workload for S recorded seconds, end-to-end metrics
// (trace 0) or per-layer metrics (trace 1), with the result as one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 42, "seed of every payload pool and arrival schedule")
		seconds  = flag.Int("seconds", 36, "recorded seconds per workload")
		trace    = flag.Int("trace", -1, "0 = end-to-end metrics only, 1 = per-layer metrics only (default: both)")
		aa       = flag.Int("aa", 0, "run N full end-to-end sets and check the spread of their medians against the bounds")
		smoke    = flag.Bool("smoke", false, "tiny models, one round of 300 ms slices, validity guards off")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for trace.ndjson, results.json and WAL scratch")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *aa, *smoke, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// hostFacts are recorded beside the results.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Plan       string `json:"slice_plan"`
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the PR driver reads from the last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what results.json holds: the host facts and every workload's
// result.
type report struct {
	Host      hostFacts          `json:"host"`
	Workloads map[string]*result `json:"workloads"`
	// Slices holds every recorded slice's value of every end-to-end
	// metric, by workload: the medians above are over these.
	Slices map[string]map[string][]float64 `json:"slices,omitempty"`
}

func run(workload string, seed int64, seconds, trace, aa int, smoke bool, outDir string) error {
	defs := workloads()
	if err := checkMetricSet(defs, endToEndMetrics, perLayerMetrics); err != nil {
		return err
	}
	if workload != "" {
		i := slices.IndexFunc(defs, func(d *workloadDef) bool { return d.name == workload })
		if i < 0 {
			return fmt.Errorf("unknown workload %q", workload)
		}
		defs = defs[i : i+1]
	}
	if seconds < 1 || trace < -1 || trace > 1 {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	// More Ps than this would mostly schedule the benchmark's own
	// goroutines differently from host to host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	p := planFor(seed, seconds, outDir)
	if smoke {
		p = smokePlan(seed, outDir)
	}
	rep := &report{
		Host: hostFacts{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Seed: seed, Plan: p.String(),
		},
		Workloads: map[string]*result{},
		Slices:    map[string]map[string][]float64{},
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s seed=%d\nplan: %s\n", rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, seed, p)
	if aa > 0 {
		return runAA(p, defs, aa)
	}
	for _, d := range defs {
		rep.Workloads[d.name] = &result{Correct: true, Metrics: map[string]value{}}
	}

	if trace != 1 {
		results, err := runEndToEnd(p, defs)
		if err != nil {
			return err
		}
		for _, e := range results {
			printEndToEnd(e)
			rep.Slices[e.workload] = e.values
			r := rep.Workloads[e.workload]
			r.Attempted += e.attempted
			r.Failed += e.failed
			for _, m := range endToEndMetrics {
				_, med, _ := e.stat(m.Name)
				r.Metrics[m.Name] = value{med, m.Unit}
			}
		}
	}
	if trace != 0 {
		var spans []span
		runs, err := runLayers(p, defs)
		if err != nil {
			return err
		}
		for i, lr := range runs {
			printLayers(defs[i].name, lr)
			spans = append(spans, lr.spans...)
			r := rep.Workloads[defs[i].name]
			r.Attempted += lr.attempted
			r.Failed += lr.failed
			for _, m := range perLayerMetrics {
				v, ok := lr.values[m.Name]
				if !ok {
					return fmt.Errorf("%s: per-layer metric %s was not measured", defs[i].name, m.Name)
				}
				r.Metrics[m.Name] = value{v, m.Unit}
			}
		}
		if err := writeTrace(outDir, spans); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}

	failed := 0
	for _, r := range rep.Workloads {
		r.Correct = r.Failed == 0
		failed += r.Failed
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	// The driver's contract: one JSON object, last line of stdout. With
	// several workloads each gets its line, in reporting order.
	for _, d := range defs {
		line, err := json.Marshal(rep.Workloads[d.name])
		if err != nil {
			return err
		}
		if len(defs) > 1 {
			fmt.Printf("%s ", d.name)
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

// printEndToEnd prints one workload's end-to-end metrics by name with
// unit, median and quartiles over the slices.
func printEndToEnd(e *endToEnd) {
	fmt.Printf("\n%s: end to end, untraced — ops attempted %d, succeeded %d, failed %d; %d latency samples in %d slices\n",
		e.workload, e.attempted, e.attempted-e.failed, e.failed, e.samples, len(e.values["latency_p50_ms"]))
	for _, m := range endToEndMetrics {
		q1, med, q3 := e.stat(m.Name)
		fmt.Printf("  %-18s %12.4f %-5s (q1 %.4f, q3 %.4f; %s is better, bound %.2f)\n", m.Name, med, m.Unit, q1, q3, m.Better, m.Bound)
	}
	if len(e.lateMs) > 0 {
		asc := sorted(e.lateMs)
		fmt.Printf("  load generator: released arrivals %.3f ms late at p50, %.3f at p95, %.3f at p99; at most %d in flight at a slice's end\n",
			percentile(asc, 0.5), e.lateP95(), percentile(asc, 0.99), e.inflight)
		if e.lateP95() > lateLimitMs {
			fmt.Printf("  WARNING: the generator ran more than %v ms late at p95: the host was too busy to hold the arrival schedule, read this run's latencies as an upper bound\n", lateLimitMs)
		}
	}
	if len(e.hostMflop) > 0 {
		host := map[string]float64{}
		hostMetrics(e.hostMflop, host)
		fmt.Printf("  host reference kernel: %.0f mflop/s, spread %.3f over %d rounds\n",
			host["host.ref_kernel_mflops"], host["host.ref_kernel_spread"], len(e.hostMflop))
	}
}

// printLayers prints one workload's per-layer metrics by name with unit,
// then the ladder's reconciliation against its own rungs.
func printLayers(workload string, lr *layerRun) {
	fmt.Printf("\n%s: per layer (traced run, ladder, fleet sweep) — ops attempted %d, failed %d\n", workload, lr.attempted, lr.failed)
	for _, m := range perLayerMetrics {
		fmt.Printf("  %-40s %14.4f %s\n", m.Name, lr.values[m.Name], m.Unit)
	}
	if bad := ladderInversions(lr.rungUs); len(bad) > 0 {
		fmt.Printf("  ladder order: INVERTED — %s\n", strings.Join(bad, "; "))
	} else {
		fmt.Printf("  ladder order: no rung is more than %.0f%% slower than the rung that contains it\n", ladderNoise*100)
	}
}
