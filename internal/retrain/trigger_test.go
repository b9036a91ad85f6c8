package retrain

import (
	"testing"
	"time"
)

// sample builds one cumulative observation for model "m", generation 1.
func sample(scores int64, sum float64) Sample {
	return Sample{Model: "m", Generation: 1, Scores: scores, ErrorSumM: sum}
}

// TestDriftTriggerFiresOnSyntheticSeries: a model promoted at 1 m mean
// error that degrades to 4 m must fire once the post-baseline window is
// full, and firing must re-baseline so one drift episode yields one
// retrain.
func TestDriftTriggerFiresOnSyntheticSeries(t *testing.T) {
	tr := NewTrigger(TriggerPolicy{MaxErrorDeltaM: 2, MinSamples: 5})
	now := time.Unix(1000, 0)

	// First sight establishes the promotion-time baseline: 100 scores
	// at 1 m mean. Never fires.
	if d := tr.Observe(now, []Sample{sample(100, 100)}); len(d) != 0 {
		t.Fatalf("baseline observation fired: %+v", d)
	}
	// 3 new scores at 4 m: over the delta but under MinSamples.
	if d := tr.Observe(now, []Sample{sample(103, 112)}); len(d) != 0 {
		t.Fatalf("fired on thin evidence (3 samples): %+v", d)
	}
	// 6 new scores at 4 m mean: rolling 4.0, baseline 1.0, delta 3 > 2.
	d := tr.Observe(now, []Sample{sample(106, 124)})
	if len(d) != 1 || d[0].Reason != ReasonDrift || d[0].Model != "m" {
		t.Fatalf("drift decision: %+v", d)
	}
	if d[0].DeltaM < 2.9 || d[0].DeltaM > 3.1 {
		t.Fatalf("delta %.2f, want ~3.0", d[0].DeltaM)
	}
	// Re-baselined at the fired state: the same degraded level does not
	// refire (one retrain per episode, the rest is the lifecycle's job).
	if d := tr.Observe(now, []Sample{sample(112, 148)}); len(d) != 0 {
		t.Fatalf("refired within the same episode: %+v", d)
	}
}

// TestDriftTriggerStaysQuietWithoutDrift: errors holding at the
// baseline level never fire.
func TestDriftTriggerStaysQuietWithoutDrift(t *testing.T) {
	tr := NewTrigger(TriggerPolicy{MaxErrorDeltaM: 2, MinSamples: 5})
	now := time.Unix(1000, 0)
	tr.Observe(now, []Sample{sample(100, 100)})
	for i := int64(1); i <= 10; i++ {
		if d := tr.Observe(now, []Sample{sample(100+10*i, 100+10*float64(i))}); len(d) != 0 {
			t.Fatalf("fired with rolling == baseline: %+v", d)
		}
	}
}

// TestGenerationChangeResetsBaseline: a promotion (new active
// generation) must re-baseline instead of comparing across generations.
func TestGenerationChangeResetsBaseline(t *testing.T) {
	tr := NewTrigger(TriggerPolicy{MaxErrorDeltaM: 2, MinSamples: 5})
	now := time.Unix(1000, 0)
	tr.Observe(now, []Sample{sample(100, 100)})
	// New generation appears with its counters reset — the old 1 m
	// baseline must not apply, and the first observation never fires.
	g2 := Sample{Model: "m", Generation: 2, Scores: 20, ErrorSumM: 100}
	if d := tr.Observe(now, []Sample{g2}); len(d) != 0 {
		t.Fatalf("fired on generation change: %+v", d)
	}
	if st := tr.State()["m"]; st.Generation != 2 || st.BaselineMean != 5 {
		t.Fatalf("baseline after generation change: %+v", st)
	}
}

// TestZeroScoreBaselineAdoptsFirstWindow: a generation promoted without
// any scored evidence has no baseline mean; the first full window must
// become the baseline instead of firing against zero.
func TestZeroScoreBaselineAdoptsFirstWindow(t *testing.T) {
	tr := NewTrigger(TriggerPolicy{MaxErrorDeltaM: 2, MinSamples: 5})
	now := time.Unix(1000, 0)
	tr.Observe(now, []Sample{sample(0, 0)})
	// 10 scores at 6 m: would be "infinite drift" vs a zero baseline.
	if d := tr.Observe(now, []Sample{sample(10, 60)}); len(d) != 0 {
		t.Fatalf("fired against an evidence-free baseline: %+v", d)
	}
	if st := tr.State()["m"]; st.BaselineMean != 6 {
		t.Fatalf("adopted baseline %.2f, want 6.0", st.BaselineMean)
	}
	// Holding at 6 m stays quiet; degrading past 8 m fires.
	if d := tr.Observe(now, []Sample{sample(20, 120)}); len(d) != 0 {
		t.Fatalf("fired at the adopted level: %+v", d)
	}
	if d := tr.Observe(now, []Sample{sample(30, 240)}); len(d) != 1 || d[0].Reason != ReasonDrift {
		t.Fatalf("no drift decision after real degradation: %+v", d)
	}
}

// TestScheduleTrigger: the wall-clock trigger fires Every after the
// baseline (or the last run), independent of error evidence — it is
// the only automatic path for a model whose active generation never
// accumulates scores.
func TestScheduleTrigger(t *testing.T) {
	tr := NewTrigger(TriggerPolicy{Every: time.Hour})
	t0 := time.Unix(1000, 0)
	tr.Observe(t0, []Sample{sample(0, 0)})
	if d := tr.Observe(t0.Add(30*time.Minute), []Sample{sample(0, 0)}); len(d) != 0 {
		t.Fatalf("schedule fired early: %+v", d)
	}
	d := tr.Observe(t0.Add(time.Hour), []Sample{sample(0, 0)})
	if len(d) != 1 || d[0].Reason != ReasonSchedule {
		t.Fatalf("schedule decision: %+v", d)
	}
	// A manual retrain (NoteRun) resets the schedule clock.
	tr.NoteRun("m", t0.Add(90*time.Minute))
	if d := tr.Observe(t0.Add(2*time.Hour), []Sample{sample(0, 0)}); len(d) != 0 {
		t.Fatalf("schedule ignored NoteRun: %+v", d)
	}
	if d := tr.Observe(t0.Add(151*time.Minute), []Sample{sample(0, 0)}); len(d) != 1 {
		t.Fatalf("schedule did not resume after NoteRun: %+v", d)
	}
}
