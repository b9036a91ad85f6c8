package main

import (
	"fmt"
	"runtime"
	"time"
)

// plan is everything that shapes a run besides the code under test.
type plan struct {
	seed   int64
	shape  shape
	smoke  bool // tiny shape, validity guards off
	outDir string

	rounds int           // recorded slices per workload
	slice  time.Duration // recorded slice length
	leadIn time.Duration // unrecorded load before a slice that follows another workload's

	tracedSlices int           // traced run: traced/untraced slice pairs ...
	tracedSlice  time.Duration // ... of this length
	rungCalls    int           // ladder: sequential calls per rung ...
	rungBudget   time.Duration // ... or this long, whichever ends first
	sweepSlice   time.Duration // fleet sweep: recorded slice per rate
}

// planFor sizes a run that records `seconds` per workload. A full-length
// run (36 s) is the shape the design was sized for: 12 rounds of 3 s
// slices. Shorter runs keep at least ten slices so the median over slices
// still rides out a slow moment on a shared host.
func planFor(seed int64, seconds int, outDir string) *plan {
	p := &plan{seed: seed, shape: perfShape(), outDir: outDir}
	total := time.Duration(seconds) * time.Second
	p.slice = min(3*time.Second, total/10)
	p.rounds = int((total + p.slice/2) / p.slice)
	p.leadIn = 500 * time.Millisecond
	// The layer run spends about the same `seconds`, lead-ins included:
	// ~40% traced and untraced slices, ~35% ladder, ~25% fleet sweep.
	p.tracedSlices = 2
	p.tracedSlice = min(3*time.Second, total*75/1000)
	p.rungCalls = 2000
	p.rungBudget = total * 35 / 100 / time.Duration(len(ladderRungs))
	p.sweepSlice = min(3*time.Second, total/20)
	return p
}

// smokePlan exercises every code path in a few seconds: one round of
// 300 ms slices on the tiny shape, validity guards off.
func smokePlan(seed int64, outDir string) *plan {
	return &plan{
		seed: seed, shape: smokeShape(), smoke: true, outDir: outDir,
		rounds: 1, slice: 300 * time.Millisecond, leadIn: 50 * time.Millisecond,
		tracedSlices: 1, tracedSlice: 300 * time.Millisecond, rungCalls: 20, rungBudget: 50 * time.Millisecond, sweepSlice: 200 * time.Millisecond,
	}
}

func (p *plan) String() string {
	return fmt.Sprintf("%d rounds x %v slices (lead-in %v), a set-up per round, traced %dx2 slices of %v, ladder %d calls or %v per rung, sweep %v per rate",
		p.rounds, p.slice, p.leadIn, p.tracedSlices, p.tracedSlice, p.rungCalls, p.rungBudget, p.sweepSlice)
}

// endToEnd is one workload's end-to-end result: per-slice values of every
// metric, reported as the median over slices.
type endToEnd struct {
	workload  string
	attempted int // ops, lead-in included
	failed    int
	samples   int // latency samples behind the medians
	values    map[string][]float64
	lateMs    []float64 // open loop: how late every recorded arrival was released
	inflight  int       // open loop: most arrivals unanswered at a slice's end
	hostMflop []float64 // reference kernel, once per round
}

// lateLimitMs is the open-loop generator's lateness at p95 past which a
// run's report carries a warning: on a quiet 2-vCPU VM the kernel's own
// timer wake-up is ~0.5 ms late at p95; past 1 ms the host, not the
// engine, is shaping the arrivals. It does not fail the run — lateness is
// inside the latency timed from the due time, and a starved host makes
// the generator late exactly when it makes the engine slow.
const lateLimitMs = 1.0

// lateP95 is the p95 lateness of the open-loop generator over every
// recorded slice (0 for a closed loop, which has no schedule to miss).
func (e *endToEnd) lateP95() float64 { return percentile(sorted(e.lateMs), 0.95) }

// stat returns a metric's quartiles over the slices.
func (e *endToEnd) stat(metric string) (q1, med, q3 float64) { return quartiles(e.values[metric]) }

// addSlice reduces one recorded slice to the per-slice metric values.
func (e *endToEnd) addSlice(p *plan, s *sliceStats) error {
	e.attempted += s.attempted
	e.failed += s.failed
	if !p.smoke {
		if need := minSamplesFor(950); len(s.latMs) < need {
			return fmt.Errorf("%s: slice recorded %d samples, need %d for a p95 with %d beyond it", e.workload, len(s.latMs), need, minTail)
		}
	}
	e.lateMs = append(e.lateMs, s.lateMs...)
	e.inflight = max(e.inflight, s.inflightEnd)
	ok := s.attempted - s.failed
	if ok <= 0 || len(s.latMs) == 0 {
		return fmt.Errorf("%s: slice completed no operation (%d attempted)", e.workload, s.attempted)
	}
	lat := sorted(s.latMs)
	e.samples += len(lat)
	e.values["latency_p50_ms"] = append(e.values["latency_p50_ms"], percentile(lat, 0.50))
	e.values["latency_p95_ms"] = append(e.values["latency_p95_ms"], percentile(lat, 0.95))
	e.values["throughput_ops_s"] = append(e.values["throughput_ops_s"], float64(ok)/s.elapsed.Seconds())
	e.values["cpu_ms_per_op"] = append(e.values["cpu_ms_per_op"], float64(s.cpu)/1e6/float64(ok))
	return nil
}

// closeAll closes every booted instance, keeping the first error.
func closeAll(insts []instance) error {
	var first error
	for _, in := range insts {
		if in == nil {
			continue
		}
		if err := in.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runEndToEnd measures the end-to-end metrics of the given workloads,
// untraced. Each workload is set up once and keeps that instance; then
// every round runs one recorded slice of each workload in turn, so a slow
// minute on a shared host lands on a few slices of every workload instead
// of all slices of one. setup_s is the median of the first set-up and one
// spare set-up per round.
func runEndToEnd(p *plan, defs []*workloadDef) (results []*endToEnd, err error) {
	insts := make([]instance, len(defs))
	defer func() {
		if cerr := closeAll(insts); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// setUp times one fresh set-up of workload i.
	setUp := func(i int) (instance, error) {
		t0 := time.Now()
		in, err := defs[i].setup(p, false)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", defs[i].name, err)
		}
		results[i].values["setup_s"] = append(results[i].values["setup_s"], time.Since(t0).Seconds())
		return in, nil
	}
	for i, d := range defs {
		results = append(results, &endToEnd{workload: d.name, values: map[string][]float64{}})
		if insts[i], err = setUp(i); err != nil {
			return nil, err
		}
	}
	last := -1
	for r := 0; r < p.rounds; r++ {
		for i, in := range insts {
			res := results[i]
			if last != i {
				var warm sliceStats
				in.drive(p.leadIn, &warm)
				res.attempted += warm.attempted
				res.failed += warm.failed
				last = i
			}
			var s sliceStats
			in.drive(p.slice, &s)
			if err := res.addSlice(p, &s); err != nil {
				return nil, err
			}
		}
		// Between rounds: one more timed set-up of every workload, thrown
		// away, so setup_s samples the machine across the run like every
		// other metric instead of its first second; and the reference
		// kernel.
		for i := range defs {
			spare, err := setUp(i)
			if err != nil {
				return nil, err
			}
			if err := spare.close(); err != nil {
				return nil, fmt.Errorf("%s: closing spare set-up: %w", defs[i].name, err)
			}
		}
		runtime.GC() // the spare set-ups' garbage is not the next slice's problem
		mflops := refKernelMflops()
		for _, res := range results {
			res.hostMflop = append(res.hostMflop, mflops)
		}
	}
	return results, nil
}
