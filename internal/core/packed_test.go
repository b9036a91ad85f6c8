package core

import (
	"bytes"
	"sync"
	"testing"

	"noble/internal/dataset"
	"noble/internal/mat"
	"noble/internal/nn"
	"noble/internal/nn/qlinear"
)

// packedBatchSizes cover every pass the row-sweep kernels serve (1–4
// rows), then straddle mat.PackedMinRows and the 8-row blocks of the
// packed kernel.
var packedBatchSizes = []int{1, 2, 3, 4, 5, 8, 9, 31, 32, 33}

// cycleRows returns n rows drawn round-robin from rows.
func cycleRows[T any](rows []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = rows[i%len(rows)]
	}
	return out
}

// untrainedWiFi is the tiny architecture at its seeded random weights,
// wide enough for full panels: bit-equality does not need training.
func untrainedWiFi(ds *dataset.WiFi, seed int64) *WiFiModel {
	cfg := tinyWiFiConfig()
	cfg.Seed = seed
	return NewWiFiModel(ds, cfg)
}

func testFingerprints(ds *dataset.WiFi, n int) *mat.Dense {
	rows := make([][]float64, len(ds.Test))
	for i, s := range ds.Test {
		rows[i] = s.Features
	}
	return mat.FromRows(cycleRows(rows, n))
}

// sameLogits compares every head's raw outputs exactly: decoded
// predictions are argmaxes and would hide a stale weight copy that moved
// a logit without moving the winner.
func sameLogits(t *testing.T, what string, got, want []*mat.Dense) {
	t.Helper()
	for h := range want {
		for i := range want[h].Data {
			if got[h].Data[i] != want[h].Data[i] {
				t.Fatalf("%s: head %d element %d = %v, want %v", what, h, i, got[h].Data[i], want[h].Data[i])
			}
		}
	}
}

func skipWithoutPackedLayout(t *testing.T, packedBytes int) {
	t.Helper()
	if packedBytes == 0 {
		t.Skip("no packed layout on this host (no AVX tiles)")
	}
}

func TestWiFiPackedLogitsMatchUnpacked(t *testing.T) {
	ds := tinyWiFi()
	packed, plain := untrainedWiFi(ds, 1), untrainedWiFi(ds, 1)
	packed.PackWeights()
	skipWithoutPackedLayout(t, packed.PackedBytes())
	if plain.PackedBytes() != 0 {
		t.Fatal("the twin was packed")
	}
	for _, n := range packedBatchSizes {
		x := testFingerprints(ds, n)
		sameLogits(t, "packed pass", packed.headOutputs(x), plain.headOutputs(x))
	}
}

// One training step after packing must answer from the stepped weights:
// the model equals a twin that took the same step and never had a packed
// copy.
func TestWiFiTrainingStepAfterPackingServesNewWeights(t *testing.T) {
	ds := tinyWiFi()
	m, twin := untrainedWiFi(ds, 1), untrainedWiFi(ds, 1)
	m.PackWeights()
	skipWithoutPackedLayout(t, m.PackedBytes())
	x := testFingerprints(ds, 32)
	before := m.headOutputs(x)

	step := func(m *WiFiModel) {
		targets := make([]*mat.Dense, len(m.net.Heads))
		for h, head := range m.net.Heads {
			classes := head.Layer.(*nn.Dense).Out
			labels := make([]int, x.Rows)
			for i := range labels {
				labels[i] = (i + h) % classes
			}
			targets[h] = nn.OneHotBatch(labels, classes)
		}
		m.net.Step(x, targets)
		nn.NewSGD(0.5, 0).Step(m.net.Params())
	}
	step(m)
	step(twin)
	if m.PackedBytes() != 0 {
		t.Fatalf("%d packed bytes survived a training step", m.PackedBytes())
	}
	after := m.headOutputs(x)
	sameLogits(t, "after the step", after, twin.headOutputs(x))
	moved := false
	for i, v := range after[m.fineHead].Data {
		moved = moved || v != before[m.fineHead].Data[i]
	}
	if !moved {
		t.Fatal("the step moved no logit: the test cannot see a stale copy")
	}
}

// Loading different weights into a packed model must equal a fresh model
// loaded with them.
func TestWiFiLoadAfterPackingServesLoadedWeights(t *testing.T) {
	ds := tinyWiFi()
	m, other := untrainedWiFi(ds, 1), untrainedWiFi(ds, 2)
	m.PackWeights()
	skipWithoutPackedLayout(t, m.PackedBytes())
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := untrainedWiFi(ds, 1)
	for _, dst := range []*WiFiModel{m, fresh} {
		if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if m.PackedBytes() != 0 {
		t.Fatalf("%d packed bytes survived Load", m.PackedBytes())
	}
	x := testFingerprints(ds, 32)
	sameLogits(t, "after Load", m.headOutputs(x), fresh.headOutputs(x))
	m.PackWeights()
	sameLogits(t, "after Load and re-pack", m.headOutputs(x), fresh.headOutputs(x))
}

// Callers racing to pack while others already predict (run under -race):
// every pass, before, during or after the build, gives the unpacked
// answer.
func TestWiFiConcurrentPackAndPredictAgree(t *testing.T) {
	ds := tinyWiFi()
	m := untrainedWiFi(ds, 1)
	x := testFingerprints(ds, 9)
	want := untrainedWiFi(ds, 1).headOutputs(x)
	const callers = 8
	outs := make([][]*mat.Dense, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				m.PackWeights()
			}
			outs[g] = m.headOutputs(x)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range outs {
		sameLogits(t, "concurrent caller", outs[g], want)
	}
}

// The int8 mirror is derived from the row-major fp64 weights whether or
// not a packed copy exists, and an int8 model does not pack.
func TestWiFiEnableInt8AfterPacking(t *testing.T) {
	ds := tinyWiFi()
	m, twin := untrainedWiFi(ds, 1), untrainedWiFi(ds, 1)
	m.PackWeights()
	calib := dataset.FeaturesMatrix(ds.Val)
	for _, mm := range []*WiFiModel{m, twin} {
		if err := mm.EnableInt8(&qlinear.Calibrator{Method: qlinear.CalibAbsMax}, calib); err != nil {
			t.Fatal(err)
		}
	}
	x := testFingerprints(ds, 32)
	sameLogits(t, "int8 after packing", m.headOutputs(x), twin.headOutputs(x))
	twin.PackWeights()
	if twin.PackedBytes() != 0 {
		t.Fatal("an int8 model packed fp64 weights its serving path never reads")
	}
}

// The IMU counterpart of TestWiFiPredictBatchMatchesPredict: a path
// decoded in a coalesced PredictPaths pass, packed or not, gets exactly
// the answer it gets alone — displacement floats included.
func TestIMUPredictPathsBatchMatchesSingle(t *testing.T) {
	ds := tinyIMU()
	m := NewIMUModel(ds, tinyIMUConfig())
	check := func(what string) {
		for _, n := range packedBatchSizes {
			paths := cycleRows(ds.Test, n)
			batch := m.PredictPaths(paths)
			for i := range paths {
				if single := m.PredictPaths(paths[i : i+1])[0]; single != batch[i] {
					t.Fatalf("%s, batch of %d, path %d: batch %+v != single %+v", what, n, i, batch[i], single)
				}
			}
		}
	}
	check("row-major")
	plain := m.PredictPaths(ds.Test)
	m.PackWeights()
	check("packed")
	for i, p := range m.PredictPaths(ds.Test) {
		if p != plain[i] {
			t.Fatalf("path %d: packed %+v != row-major %+v", i, p, plain[i])
		}
	}
}

// Load drops the IMU model's packed copy too.
func TestIMULoadAfterPackingServesLoadedWeights(t *testing.T) {
	ds := tinyIMU()
	cfg := tinyIMUConfig()
	m := NewIMUModel(ds, cfg)
	cfg.Seed = 2
	other := NewIMUModel(ds, cfg)
	m.PackWeights()
	skipWithoutPackedLayout(t, m.PackedBytes())
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if m.PackedBytes() != 0 {
		t.Fatalf("%d packed bytes survived Load", m.PackedBytes())
	}
	paths := cycleRows(ds.Test, 32)
	want := other.PredictPaths(paths)
	for i, p := range m.PredictPaths(paths) {
		if p != want[i] {
			t.Fatalf("path %d: %+v after Load, the loaded model gives %+v", i, p, want[i])
		}
	}
}
