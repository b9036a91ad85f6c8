package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(v, n=4) in Python gives these.
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{in: []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, q1: 2.75, med: 5.5, q3: 8.25},
		{in: []float64{5, 4, 3, 2, 1}, q1: 1.5, med: 3, q3: 4.5},
		{in: []float64{2, 4}, q1: 1.5, med: 3, q3: 4.5}, // Python extrapolates past the ends
		{in: []float64{7}, q1: 7, med: 7, q3: 7},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, med, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 0.95); got != 3 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	// The slice guard and the p95 metric agree: 200 samples is the least
	// that leaves ten beyond p95.
	for _, c := range []struct{ perMille, want int }{{500, 20}, {900, 100}, {950, 200}, {990, 1000}, {999, 10000}} {
		got := minSamplesFor(c.perMille)
		if got != c.want {
			t.Errorf("minSamplesFor(%d) = %d, want %d", c.perMille, got, c.want)
		}
		if beyond := got - got*c.perMille/1000; beyond < minTail {
			t.Errorf("p%d of %d samples has only %d beyond it", c.perMille, got, beyond)
		}
	}
}

func TestScheduleAndPayloadsFollowTheSeed(t *testing.T) {
	schedule := func(seed int64) ([]time.Duration, []int) {
		return poissonSchedule(rand.New(rand.NewSource(seed)), fleetRate, 500*time.Millisecond, fleetPool)
	}
	due1, pay1 := schedule(42)
	due2, pay2 := schedule(42)
	if !reflect.DeepEqual(due1, due2) || !reflect.DeepEqual(pay1, pay2) {
		t.Error("same seed gave different arrival schedules")
	}
	due3, pay3 := schedule(43)
	if reflect.DeepEqual(due1, due3) || reflect.DeepEqual(pay1, pay3) {
		t.Error("different seeds gave the same arrival schedule")
	}
	// 2000/s over 0.5 s: about 1000 arrivals, in order, inside the slice.
	if n := len(due1); n < 850 || n > 1150 {
		t.Errorf("schedule has %d arrivals, want about 1000", n)
	}
	for i := 1; i < len(due1); i++ {
		if due1[i] < due1[i-1] || due1[i] >= 500*time.Millisecond {
			t.Fatalf("arrival %d at %v is out of order or past the slice", i, due1[i])
		}
	}

	payloads := func(seed int64) ([]float64, []float64) {
		rng := rand.New(rand.NewSource(seed))
		return synthFingerprint(rng, 160), synthSegment(rng, 35)
	}
	fp1, seg1 := payloads(42)
	fp2, seg2 := payloads(42)
	fp3, seg3 := payloads(43)
	if !reflect.DeepEqual(fp1, fp2) || !reflect.DeepEqual(seg1, seg2) {
		t.Error("same seed gave different payloads")
	}
	if reflect.DeepEqual(fp1, fp3) || reflect.DeepEqual(seg1, seg3) {
		t.Error("different seeds gave the same payloads")
	}
	heard := 0
	for _, v := range fp1 {
		if v != 0 {
			heard++
		}
	}
	if heard < 25 || heard > 75 {
		t.Errorf("fingerprint hears %d of 160 WAPs, want about 30%%", heard)
	}
}

func TestMetricSetWithinLimits(t *testing.T) {
	if err := checkMetricSet(workloads(), endToEndMetrics, perLayerMetrics); err != nil {
		t.Fatal(err)
	}
	bad := []metricDef{{Name: "has space", Unit: "ms", Better: "lower"}}
	if checkMetricSet(workloads(), endToEndMetrics, bad) == nil {
		t.Error("a metric name with a space passed the check")
	}
	dup := append([]metricDef{{Name: "setup_s", Unit: "s", Better: "lower"}}, perLayerMetrics...)
	if checkMetricSet(workloads(), endToEndMetrics, dup) == nil {
		t.Error("a name used twice passed the check")
	}
	wide := []metricDef{{Name: "x", Unit: "ms", Better: "lower", Bound: 0.3}}
	if checkMetricSet(workloads(), wide, nil) == nil {
		t.Error("a bound above 0.25 passed the check")
	}
	setup := false
	for _, m := range endToEndMetrics {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	// Every ladder rung is a declared per-layer metric and names a parent
	// that is a rung.
	declared := map[string]bool{}
	for _, m := range perLayerMetrics {
		declared[m.Name] = true
	}
	rungs := map[string]bool{}
	for _, r := range ladderRungs {
		rungs[r.name] = true
	}
	for _, r := range ladderRungs {
		if !declared[r.name] {
			t.Errorf("rung %s is not a per-layer metric", r.name)
		}
		if r.parent != "" && !rungs[r.parent] {
			t.Errorf("rung %s names parent %s, which is not a rung", r.name, r.parent)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the machine-readable contract at the
// repository root in step with what the program emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) || !reflect.DeepEqual(bm.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v over paths %v, want go run ./bench over [bench]", bm.Command, bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bm.RunSeconds)
	}
	defs := workloads()
	if len(bm.Workloads) != len(defs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bm.Workloads), len(defs))
	}
	for i, d := range defs {
		if bm.Workloads[i].Name != d.name || bm.Workloads[i].Why != d.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, d.name, d.why)
		}
		if len(d.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", d.name, len(d.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the code's %v", kind, w.Name, w.Bound)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEndMetrics, true)
	same("per_layer", bm.PerLayer, perLayerMetrics, false)
}

// TestSmoke runs all four workloads, the traced run, the ladder and the
// fleet sweep on the tiny shape: every output is still checked against
// the models, only the timings mean nothing.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	if err := run("", 42, 1, -1, 0, true, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, d := range workloads() {
		r := rep.Workloads[d.name]
		if r == nil || !r.Correct || r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: result %+v, want correct with ops attempted and none failed", d.name, r)
			continue
		}
		if want := len(endToEndMetrics) + len(perLayerMetrics); len(r.Metrics) != want {
			t.Errorf("%s: %d metrics reported, want %d", d.name, len(r.Metrics), want)
		}
	}
	if st, err := os.Stat(filepath.Join(out, "trace.ndjson")); err != nil || st.Size() == 0 {
		t.Errorf("trace.ndjson missing or empty: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "wal-*")); len(left) != 0 {
		t.Errorf("WAL scratch left behind: %v", left)
	}
}
