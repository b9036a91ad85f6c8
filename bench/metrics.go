package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported metric. BENCHMARK.json repeats name,
// unit, better (and bound, for end-to-end metrics) and a test keeps the
// two in step; README.md says how each is measured and what it should
// move.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEndMetrics are what a user of the system sees, measured untraced,
// per slice, and reported as the median over slices.
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are single-layer numbers (layer = package): the ladder
// first, outside in from the kernel, then the traced run.
var perLayerMetrics = []metricDef{
	{Name: "mat.gemm_b1_us", Unit: "us", Better: "lower"},
	{Name: "mat.gemm_b32_us", Unit: "us", Better: "lower"},
	{Name: "mat.gemm_b32_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "mat.qgemm_b32_us", Unit: "us", Better: "lower"},
	{Name: "core.wifi_predict_b1_us", Unit: "us", Better: "lower"},
	{Name: "core.wifi_predict_b8_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.wifi_predict_b32_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.wifi_predict_int8_b1_us", Unit: "us", Better: "lower"},
	{Name: "core.wifi_predict_int8_b32_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.imu_predict_paths_b1_us", Unit: "us", Better: "lower"},
	{Name: "core.tracker_step_commit_us", Unit: "us", Better: "lower"},
	{Name: "serve.batcher.noop_submit_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.localize_b1_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.localize_b32_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.append_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.append_journal_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.append_fix_us", Unit: "us", Better: "lower"},
	{Name: "serve.http.localize_b1_us", Unit: "us", Better: "lower"},
	{Name: "serve.http.localize_b32_us", Unit: "us", Better: "lower"},
	{Name: "serve.http.append_us", Unit: "us", Better: "lower"},
	{Name: "serve.http.codec_self_b32_us", Unit: "us", Better: "lower"},
	{Name: "client.localize_b1_us", Unit: "us", Better: "lower"},
	{Name: "client.localize_b32_us", Unit: "us", Better: "lower"},
	{Name: "client.append_us", Unit: "us", Better: "lower"},
	{Name: "client.transport_self_b1_us", Unit: "us", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.stage.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.batch_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.session_lock_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.journal_append_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.journal_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.total_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batcher.rows_per_pass", Unit: "count", Better: "higher"},
	{Name: "serve.batcher.passes_per_s", Unit: "1/s", Better: "lower"},
	{Name: "serve.batcher.dropped_rows", Unit: "count", Better: "lower"},
	{Name: "client.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "process.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "process.heap_inuse_mb_max", Unit: "MB", Better: "lower"},
	{Name: "tail.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.inflight_end_max", Unit: "count", Better: "lower"},
	{Name: "fleet.p95_ms_at_1000", Unit: "ms", Better: "lower"},
	{Name: "fleet.p95_ms_at_2000", Unit: "ms", Better: "lower"},
	{Name: "fleet.p95_ms_at_4000", Unit: "ms", Better: "lower"},
	{Name: "fleet.p95_ms_at_8000", Unit: "ms", Better: "lower"},
	{Name: "fleet.max_rate_within_limit", Unit: "1/s", Better: "higher"},
	{Name: "host.ref_kernel_mflops", Unit: "mflop/s", Better: "higher"},
	{Name: "host.ref_kernel_spread", Unit: "ratio", Better: "lower"},
}

// Limits of the emitted metric set (the builder's contract).
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetricSet fails the run on a malformed name or unit, a duplicate
// or a set past the limits, instead of printing numbers nobody can match.
func checkMetricSet(defs []*workloadDef, e2e, layer []metricDef) error {
	if len(defs) < 2 || len(defs) > maxWorkloads || len(e2e) > maxEndToEnd || len(layer) > maxPerLayer {
		return fmt.Errorf("metric set outside limits: %d workloads, %d end-to-end, %d per-layer", len(defs), len(e2e), len(layer))
	}
	seen := map[string]bool{}
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, d := range defs {
		if err := check(d.name); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricDef(nil), e2e...), layer...) {
		if err := check(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}
