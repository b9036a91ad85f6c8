package core

import (
	"bytes"
	"testing"

	"noble/internal/dataset"
	"noble/internal/eval"
	"noble/internal/geo"
)

// tinyWiFi builds a fast single-building dataset for unit tests.
func tinyWiFi() *dataset.WiFi {
	cfg := dataset.SmallIPINConfig()
	cfg.NumWAPs = 25
	cfg.RefSpacing = 4
	cfg.SamplesPerRef = 5
	cfg.TestSamplesPerRef = 2
	cfg.Seed = 3
	return dataset.SynthIPIN(cfg)
}

func tinyWiFiConfig() WiFiConfig {
	cfg := DefaultWiFiConfig()
	cfg.Hidden = []int{32, 32}
	cfg.Epochs = 25
	cfg.TauFine = 0.5
	cfg.TauCoarse = 6
	cfg.Seed = 1
	return cfg
}

func TestTrainWiFiLearnsLocalization(t *testing.T) {
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	x := dataset.FeaturesMatrix(ds.Test)
	preds := m.PredictMatrix(x)
	errs := eval.Errors(predPositions(preds), dataset.Positions(ds.Test))
	stats := eval.Stats(errs)
	// The building is 40×17 m; random guessing would give ≈15 m mean.
	if stats.Mean > 6 {
		t.Fatalf("mean error %v m — model did not learn", stats.Mean)
	}
	if stats.Median > 3 {
		t.Fatalf("median error %v m", stats.Median)
	}
}

func TestWiFiFloorHeadLearns(t *testing.T) {
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	x := dataset.FeaturesMatrix(ds.Test)
	preds := m.PredictMatrix(x)
	floors := make([]int, len(preds))
	for i, p := range preds {
		floors[i] = p.Floor
	}
	rate := eval.HitRate(floors, dataset.FloorLabels(ds.Test))
	if rate < 0.6 {
		t.Fatalf("floor hit rate %v", rate)
	}
}

func TestWiFiPredictSingleMatchesBatch(t *testing.T) {
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	x := dataset.FeaturesMatrix(ds.Test[:3])
	batch := m.PredictMatrix(x)
	for i := 0; i < 3; i++ {
		single := m.Predict(ds.Test[i].Features)
		if single.Class != batch[i].Class || single.Pos != batch[i].Pos {
			t.Fatal("single and batch prediction disagree")
		}
	}
}

func TestWiFiPredictBatchMatchesPredict(t *testing.T) {
	// The serving layer's micro-batcher answers requests from one
	// coalesced PredictBatch pass; a device must get bit-for-bit the
	// same answer it would have gotten alone.
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	rows := make([][]float64, len(ds.Test))
	for i, s := range ds.Test {
		rows[i] = s.Features
	}
	batch := m.PredictBatch(rows)
	if len(batch) != len(rows) {
		t.Fatalf("PredictBatch returned %d results for %d rows", len(batch), len(rows))
	}
	for i, s := range ds.Test {
		single := m.Predict(s.Features)
		if single != batch[i] {
			t.Fatalf("sample %d: batch %+v != single %+v", i, batch[i], single)
		}
	}
	if m.PredictBatch(nil) != nil {
		t.Fatal("empty batch must return nil")
	}
	// The same with the packed weight copy engaged, at every batch size
	// the row sweep serves (1–4) and either side of the packed path's
	// threshold and of its 8-row blocks: Predict is a one-row pass and
	// always reads the row-major weights.
	m.PackWeights()
	for _, n := range packedBatchSizes {
		sub := cycleRows(rows, n)
		batch := m.PredictBatch(sub)
		for i, row := range sub {
			if single := m.Predict(row); single != batch[i] {
				t.Fatalf("packed, batch of %d, sample %d: batch %+v != single %+v", n, i, batch[i], single)
			}
		}
	}
}

func TestNewWiFiModelLoadsTrainedWeights(t *testing.T) {
	// NewWiFiModel must build the identical architecture TrainWiFi
	// trains, so Save/Load round-trips through an untrained model — the
	// path the serving registry takes when loading a bundle.
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Epochs = 4
	trained := TrainWiFi(ds, cfg)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewWiFiModel(ds, cfg)
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := dataset.FeaturesMatrix(ds.Test)
	pa, pb := trained.PredictMatrix(x), fresh.PredictMatrix(x)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("sample %d: restored model predicts %+v, trained predicts %+v", i, pb[i], pa[i])
		}
	}
	if fresh.InputDim() != ds.NumWAPs {
		t.Fatalf("InputDim %d, want %d", fresh.InputDim(), ds.NumWAPs)
	}
}

func TestWiFiPredictionsAreOnGridCentroids(t *testing.T) {
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	x := dataset.FeaturesMatrix(ds.Test)
	for _, p := range m.PredictMatrix(x) {
		if p.Class < 0 || p.Class >= m.Classes() {
			t.Fatalf("class %d out of range", p.Class)
		}
		if p.Pos != m.Grids.Fine.Decode(p.Class) {
			t.Fatal("prediction must decode to the class centroid")
		}
	}
}

func TestWiFiStructureAwareness(t *testing.T) {
	// By construction every NObLe output is a populated-cell centroid,
	// so (almost) everything lies on the map.
	ds := tinyWiFi()
	m := TrainWiFi(ds, tinyWiFiConfig())
	x := dataset.FeaturesMatrix(ds.Test)
	preds := m.PredictMatrix(x)
	rate := eval.OnMapRate(ds.Plan, predPositions(preds))
	if rate < 0.99 {
		t.Fatalf("on-map rate %v — NObLe outputs must lie on the map", rate)
	}
}

func TestWiFiMultiLabelVariantTrains(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.MultiLabel = true
	cfg.AdjacentWeight = 0.3
	m := TrainWiFi(ds, cfg)
	x := dataset.FeaturesMatrix(ds.Test)
	errs := eval.Errors(predPositions(m.PredictMatrix(x)), dataset.Positions(ds.Test))
	if eval.Stats(errs).Mean > 8 {
		t.Fatalf("multi-label variant mean error %v", eval.Stats(errs).Mean)
	}
}

func TestWiFiHeadsCanBeDisabled(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Epochs = 3
	cfg.CoarseHead = false
	cfg.BuildingHead = false
	cfg.FloorHead = false
	m := TrainWiFi(ds, cfg)
	x := dataset.FeaturesMatrix(ds.Test[:2])
	preds := m.PredictMatrix(x)
	for _, p := range preds {
		if p.Building != 0 || p.Floor != 0 {
			t.Fatal("disabled heads must report 0")
		}
	}
}

func TestWiFiDeterministicTraining(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Epochs = 4
	a := TrainWiFi(ds, cfg)
	b := TrainWiFi(ds, cfg)
	x := dataset.FeaturesMatrix(ds.Test[:5])
	pa, pb := a.PredictMatrix(x), b.PredictMatrix(x)
	for i := range pa {
		if pa[i].Class != pb[i].Class {
			t.Fatal("training must be deterministic per seed")
		}
	}
}

func TestWiFiSaveLoadRoundTrip(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Epochs = 4
	m := TrainWiFi(ds, cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Epochs = 1 // different training, same architecture
	m2 := TrainWiFi(ds, cfg2)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := dataset.FeaturesMatrix(ds.Test[:5])
	pa, pb := m.PredictMatrix(x), m2.PredictMatrix(x)
	for i := range pa {
		if pa[i].Class != pb[i].Class || pa[i].Floor != pb[i].Floor {
			t.Fatal("loaded model must reproduce saved predictions")
		}
	}
}

func TestWiFiEmbedShape(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Epochs = 2
	m := TrainWiFi(ds, cfg)
	x := dataset.FeaturesMatrix(ds.Test[:4])
	emb := m.Embed(x)
	if emb.Rows != 4 || emb.Cols != 32 {
		t.Fatalf("embedding %d×%d", emb.Rows, emb.Cols)
	}
	if m.FLOPs() <= 0 {
		t.Fatal("FLOPs must be positive")
	}
}

func TestWiFiBadConfigPanics(t *testing.T) {
	ds := tinyWiFi()
	cfg := tinyWiFiConfig()
	cfg.Hidden = nil
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainWiFi(ds, cfg)
}

func predPositions(preds []WiFiPrediction) []geo.Point {
	out := make([]geo.Point, len(preds))
	for i, p := range preds {
		out[i] = p.Pos
	}
	return out
}
