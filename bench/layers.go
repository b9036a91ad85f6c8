package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"noble/internal/serve"
)

// sweepRates are the fixed offered rates of the fleet sweep, per second.
var sweepRates = []float64{1000, 2000, 4000, 8000}

// layerRun collects the per-layer metrics of one run.
type layerRun struct {
	values    map[string]float64
	rungUs    map[string]float64 // ladder: raw p50 per call, by rung
	spans     []span
	attempted int
	failed    int
}

func newLayerRun() *layerRun {
	return &layerRun{values: map[string]float64{}, rungUs: map[string]float64{}}
}

// stageNames maps the tracer's stage names onto the reported metrics.
var stageNames = []string{"queue_wait", "batch_pass", "decode", "encode", "session_lock", "journal_append", "journal_fsync", "total"}

// stageTotals sums the tracer's per-stage seconds and the request count.
type stageTotals struct {
	seconds  map[string]float64
	requests int64
}

// readStages snapshots the engine's stage histograms through its public
// tracer snapshot.
func readStages(eng *serve.Engine) stageTotals {
	t := stageTotals{seconds: map[string]float64{}}
	for name, st := range eng.Tracer().StageSnapshot() {
		t.seconds[name] = st.SumSeconds
		if name == "total" {
			t.requests = st.Count
		}
	}
	return t
}

// memCounters is the allocation and GC view around a slice.
type memCounters struct {
	mallocs, bytes, pauseNs, heapInuse uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, heapInuse: ms.HeapInuse}
}

// tracedRun produces one workload's traced-run metrics: the workload is
// booted twice, untraced and traced, and slices of the two alternate.
// Stage and batcher numbers are deltas of the traced engine's public
// snapshots around its slices; allocation, GC, tail and load-generator
// numbers come from the untraced slices (the configuration the
// end-to-end metrics describe); the pair gives the tracing overhead.
func tracedRun(p *plan, def *workloadDef, out *layerRun) (err error) {
	var pair [2]instance // untraced, traced
	defer func() {
		if cerr := closeAll(pair[:]); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for i := range pair {
		if pair[i], err = def.setup(p, i == 1); err != nil {
			return fmt.Errorf("%s: setup: %w", def.name, err)
		}
	}
	var (
		p50          [2][]float64
		untracedLat  []float64
		lateMs       []float64
		inflightMax  int
		stageSec     = map[string]float64{}
		requests     int64
		passes, rows int64
		dropped      int64
		tracedSec    float64
		mem          memCounters
		untracedOps  int
		untracedSec  float64
		heapMax      uint64
	)
	for k := 0; k < p.tracedSlices; k++ {
		for i, in := range pair {
			var warm sliceStats
			in.drive(p.leadIn, &warm)
			s := sliceStats{keepSpans: i == 1}
			stages0, batch0, mem0 := readStages(in.engine()), in.engine().BatchSnapshot(in.batchKind()), readMem()
			in.drive(p.tracedSlice, &s)
			mem1 := readMem()
			out.attempted += warm.attempted + s.attempted
			out.failed += warm.failed + s.failed
			if len(s.latMs) == 0 {
				return fmt.Errorf("%s: traced-run slice completed no operation", def.name)
			}
			p50[i] = append(p50[i], percentile(sorted(s.latMs), 0.5))
			heapMax = max(heapMax, mem1.heapInuse)
			if i == 0 {
				untracedLat = append(untracedLat, s.latMs...)
				lateMs = append(lateMs, s.lateMs...)
				inflightMax = max(inflightMax, s.inflightEnd)
				untracedOps += s.attempted - s.failed
				untracedSec += s.elapsed.Seconds()
				mem.mallocs += mem1.mallocs - mem0.mallocs
				mem.bytes += mem1.bytes - mem0.bytes
				mem.pauseNs += mem1.pauseNs - mem0.pauseNs
				continue
			}
			stages1, batch1 := readStages(in.engine()), in.engine().BatchSnapshot(in.batchKind())
			for name, sec := range stages1.seconds {
				stageSec[name] += sec - stages0.seconds[name]
			}
			requests += stages1.requests - stages0.requests
			passes += batch1.Passes - batch0.Passes
			rows += batch1.Rows - batch0.Rows
			dropped += batch1.DroppedRows - batch0.DroppedRows
			tracedSec += s.elapsed.Seconds()
			out.spans = append(out.spans, s.spans...)
		}
	}
	if requests == 0 || passes == 0 || untracedOps == 0 {
		return fmt.Errorf("%s: traced run saw %d traced requests, %d passes, %d untraced ops", def.name, requests, passes, untracedOps)
	}
	v := out.values
	for _, name := range stageNames {
		v["serve.stage."+name+"_ms"] = stageSec[name] / float64(requests) * 1e3
	}
	v["serve.batcher.rows_per_pass"] = float64(rows) / float64(passes)
	v["serve.batcher.passes_per_s"] = float64(passes) / tracedSec
	v["serve.batcher.dropped_rows"] = float64(dropped)
	untraced, traced := median(p50[0]), median(p50[1])
	v["client.unattributed_ms"] = traced - v["serve.stage.total_ms"]
	v["obs.trace_overhead_share"] = traced/untraced - 1
	v["process.allocs_per_op"] = float64(mem.mallocs) / float64(untracedOps)
	v["process.alloc_bytes_per_op"] = float64(mem.bytes) / float64(untracedOps)
	v["process.gc_pause_ms_per_s"] = float64(mem.pauseNs) / 1e6 / untracedSec
	v["process.heap_inuse_mb_max"] = float64(heapMax) / (1 << 20)
	lat := sorted(untracedLat)
	v["tail.latency_p99_ms"] = percentile(lat, 0.99)
	v["tail.latency_max_ms"] = lat[len(lat)-1]
	v["loadgen.late_p95_ms"] = percentile(sorted(lateMs), 0.95)
	v["loadgen.inflight_end_max"] = float64(inflightMax)
	return nil
}

// fleetSweep offers the fleet workload's traffic at each fixed rate for
// one slice and reports p95 from the due time per rate, plus the highest
// swept rate that held the latency limit with zero failures and no
// growing backlog. Failures past the knee are data here, not errors.
func fleetSweep(p *plan, out *layerRun) (err error) {
	in, err := newFleetInstance(p, false)
	if err != nil {
		return fmt.Errorf("fleet sweep: setup: %w", err)
	}
	defer func() {
		if cerr := in.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	fleet := in.(*fleetInstance)
	best := 0.0
	for _, rate := range sweepRates {
		fleet.rate = rate
		var warm, s sliceStats
		fleet.drive(p.leadIn, &warm)
		fleet.drive(p.sweepSlice, &s)
		// An arrival that failed (deadline) waited at least the deadline.
		lat := append([]float64(nil), s.latMs...)
		for i := 0; i < s.failed; i++ {
			lat = append(lat, float64(fleetDeadline)/1e6)
		}
		p95 := percentile(sorted(lat), 0.95)
		out.values[fmt.Sprintf("fleet.p95_ms_at_%d", int(rate))] = p95
		// Little's law: a queue holding the limit has rate x limit in
		// flight; twice that at the end of the schedule is a backlog.
		backlog := float64(s.inflightEnd) > 2*rate*fleetLimitMs/1e3
		if p95 <= fleetLimitMs && s.failed == 0 && !backlog {
			best = rate
		}
	}
	out.values["fleet.max_rate_within_limit"] = best
	return nil
}

// refKernelMflops times a fixed scalar matmul defined right here — not
// the code under test — for ~50 ms and returns MFLOP/s. Timed once per
// round, it shows how much the machine moved during a run; it is
// reported, never used to rescale.
func refKernelMflops() float64 {
	const n, dur = 96, 50 * time.Millisecond
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	var flops int64
	start := time.Now()
	for time.Since(start) < dur {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		flops += 2 * n * n * n
	}
	refSink.Store(math.Float64bits(c[0])) // defeat dead-code elimination
	return float64(flops) / time.Since(start).Seconds() / 1e6
}

var refSink atomic.Uint64

// hostMetrics reduces the reference-kernel samples of a run.
func hostMetrics(mflops []float64, values map[string]float64) {
	asc := sorted(mflops)
	med := median(asc)
	values["host.ref_kernel_mflops"] = med
	values["host.ref_kernel_spread"] = (asc[len(asc)-1] - asc[0]) / med
}

// runLayers produces every per-layer metric for the given workloads: each
// workload's traced run, then the ladder and the fleet sweep once (they
// do not depend on the workload; every workload's result carries them),
// with the reference kernel timed between the phases.
func runLayers(p *plan, defs []*workloadDef) ([]*layerRun, error) {
	shared := newLayerRun()
	mflops := []float64{refKernelMflops()}
	runs := make([]*layerRun, len(defs))
	for i, def := range defs {
		runs[i] = newLayerRun()
		if err := tracedRun(p, def, runs[i]); err != nil {
			return nil, err
		}
		mflops = append(mflops, refKernelMflops())
	}
	for _, phase := range []func(*plan, *layerRun) error{runLadder, fleetSweep} {
		if err := phase(p, shared); err != nil {
			return nil, err
		}
		mflops = append(mflops, refKernelMflops())
	}
	hostMetrics(mflops, shared.values)
	for i, run := range runs {
		for name, v := range shared.values {
			run.values[name] = v
		}
		run.rungUs = shared.rungUs
		if i == 0 {
			run.spans = append(run.spans, shared.spans...)
		}
	}
	return runs, nil
}
