package benchrig

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"noble/internal/serve"
)

// Demo bundles shared across rig tests, trained once per test binary
// (the tiny spec trains in well under a second).
var (
	demoOnce sync.Once
	demoDir  string
	demoErr  error
)

func demoModels(t *testing.T) string {
	t.Helper()
	demoOnce.Do(func() {
		demoDir, demoErr = os.MkdirTemp("", "benchrig-models-")
		if demoErr == nil {
			demoErr = serve.TrainDemoBundles(demoDir, serve.DemoTiny, nil)
		}
	})
	if demoErr != nil {
		t.Fatalf("training demo bundles: %v", demoErr)
	}
	return demoDir
}

func testRig(t *testing.T) *Rig {
	dir := demoModels(t)
	return &Rig{
		NewRegistry: func() (*serve.Registry, error) {
			reg := serve.NewRegistry(dir, func(string, ...any) {})
			if _, _, err := reg.Reload(); err != nil {
				return nil, err
			}
			return reg, nil
		},
		Seed:            7,
		PassDuration:    150 * time.Millisecond,
		WarmupDuration:  50 * time.Millisecond,
		MinPassDuration: 50 * time.Millisecond,
		Runs:            2,
	}
}

func TestRigRunsLocalizeScenario(t *testing.T) {
	rig := testRig(t)
	suite := Suite()
	sc := suite[0] // cold_localize
	res, err := rig.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "cold_localize" || res.Ok == 0 || res.Throughput <= 0 {
		t.Fatalf("thin result: %+v", res)
	}
	if len(res.RunThroughputs) != 2 {
		t.Fatalf("%d run throughputs, want 2", len(res.RunThroughputs))
	}
	if res.LatencyMs.P99 < res.LatencyMs.P50 || res.LatencyMs.Max < res.LatencyMs.P99 {
		t.Fatalf("inconsistent latency summary: %+v", res.LatencyMs)
	}
	lb, ok := res.Batch["localize"]
	if !ok || lb.Passes == 0 || lb.Rows == 0 {
		t.Fatalf("batch counters missing: %+v", res.Batch)
	}
	var histTotal int64
	for _, b := range lb.SizeHist {
		histTotal += b.Passes
	}
	if histTotal != lb.Passes {
		t.Fatalf("size histogram sums to %d, want %d passes", histTotal, lb.Passes)
	}
}

func TestRigRunsJournaledTrackingScenario(t *testing.T) {
	rig := testRig(t)
	var sc Scenario
	for _, s := range Suite() {
		if s.Name == "track_journal_c16" {
			sc = s
		}
	}
	sc.Concurrency = 4 // keep the test light
	res, err := rig.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok == 0 || res.Batch["track"].Rows == 0 {
		t.Fatalf("journaled tracking produced nothing: %+v", res)
	}
}

func TestRigRejectsZeroSuccessPasses(t *testing.T) {
	rig := testRig(t)
	sc := Scenario{
		Name: "broken", Concurrency: 1, Unit: "req/s",
		Engine: EngineOptions{},
		// A scenario that never records a success must fail the run, not
		// produce a zero-throughput result the gate would then trust.
		Run: func(env *Env) error {
			for env.Next() {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		},
	}
	if _, err := rig.RunScenario(context.Background(), sc); err == nil {
		t.Fatal("zero-success scenario must error")
	}
}

func TestRigPropagatesScenarioError(t *testing.T) {
	rig := testRig(t)
	rig.WarmupDuration = 0
	boom := errors.New("harness broke")
	sc := Scenario{
		Name: "exploding", Concurrency: 1, Unit: "req/s",
		Run: func(env *Env) error { return boom },
	}
	if _, err := rig.RunScenario(context.Background(), sc); !errors.Is(err, boom) {
		t.Fatalf("err %v, want the scenario's own error", err)
	}
}

func TestSuiteNamesAreStableAndUnique(t *testing.T) {
	// The CI gate joins baseline to current by scenario name; this pins
	// the published set so a rename is a conscious baseline-breaking
	// change, not an accident.
	want := []string{
		"cold_localize",
		"localize_batch_c8",
		"localize_batch_c32",
		"localize_int8_c32",
		"localize_unbatched_c32",
		"shadow_mirror_c32",
		"track_sessions_c16",
		"track_int8_c16",
		"track_journal_c16",
		"track_stream_c8",
		"mixed_deadline_c24",
		"mixed_precision_c24",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(suite), len(want))
	}
	seen := map[string]bool{}
	for i, sc := range suite {
		if sc.Name != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, sc.Name, want[i])
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Run == nil || sc.Concurrency <= 0 || sc.Unit == "" {
			t.Fatalf("scenario %q underspecified: %+v", sc.Name, sc)
		}
	}
}
