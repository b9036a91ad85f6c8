package serve

import (
	"strings"
	"testing"
	"time"
)

func TestSizeBucketsPairing(t *testing.T) {
	// The hist array is sized by a constant; it must track the bucket
	// bounds slice (plus the overflow slot) or counts silently misfile.
	if numSizeBuckets != len(batchSizeBuckets)+1 {
		t.Fatalf("numSizeBuckets = %d, want len(batchSizeBuckets)+1 = %d",
			numSizeBuckets, len(batchSizeBuckets)+1)
	}
	if numErrorBuckets != len(lifecycleErrorBuckets)+1 {
		t.Fatalf("numErrorBuckets = %d, want len(lifecycleErrorBuckets)+1 = %d",
			numErrorBuckets, len(lifecycleErrorBuckets)+1)
	}
}

func TestBatchSnapshotHistogram(t *testing.T) {
	m := NewMetrics()
	// One pass per bucket bound, plus one overflow pass.
	for _, size := range []int{1, 2, 3, 8, 30, 64, 65, 500} {
		m.ObserveBatch("localize", size)
	}
	m.ObserveBatchDrop("localize", 7)

	snap := m.Snapshot("localize")
	if snap.Passes != 8 || snap.MaxRows != 500 || snap.DroppedRows != 7 {
		t.Fatalf("snapshot %+v", snap)
	}
	wantRows := int64(1 + 2 + 3 + 8 + 30 + 64 + 65 + 500)
	if snap.Rows != wantRows {
		t.Fatalf("rows %d, want %d", snap.Rows, wantRows)
	}
	// Buckets are 1,2,4,8,16,32,64 + overflow: sizes 1→b0, 2→b1, 3→b2,
	// 8→b3, 30→b5, 64→b6, 65 and 500→overflow.
	want := []int64{1, 1, 1, 1, 0, 1, 1, 2}
	if len(snap.SizeCounts) != len(want) {
		t.Fatalf("%d size counts, want %d", len(snap.SizeCounts), len(want))
	}
	for i, n := range want {
		if snap.SizeCounts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.SizeCounts[i], n, snap.SizeCounts)
		}
	}

	// An unknown kind diffs cleanly: zero counters, zeroed (not nil)
	// histogram of the same shape.
	empty := m.Snapshot("nope")
	if empty.Passes != 0 || len(empty.SizeCounts) != len(want) {
		t.Fatalf("empty snapshot %+v", empty)
	}

	// Snapshot returns copies: mutating one must not alias the live hist.
	snap.SizeCounts[0] = 99
	if again := m.Snapshot("localize"); again.SizeCounts[0] != 1 {
		t.Fatalf("snapshot aliases live histogram: %v", again.SizeCounts)
	}
}

func TestPrometheusBatchSizeHistogram(t *testing.T) {
	m := NewMetrics()
	m.Observe("v2_localize", 200, 3*time.Millisecond)
	m.ObserveBatch("localize", 3)
	m.ObserveBatch("localize", 100)
	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`noble_batch_size_bucket{kind="localize",le="4"} 1`,
		`noble_batch_size_bucket{kind="localize",le="64"} 1`,
		`noble_batch_size_bucket{kind="localize",le="+Inf"} 2`,
		`noble_batch_size_sum{kind="localize"} 103`,
		`noble_batch_size_count{kind="localize"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
