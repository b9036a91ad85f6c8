package core

import (
	"fmt"
	"math/rand"
	"testing"

	"noble/internal/dataset"
)

// benchWiFiModel trains a paper-capacity model (two 128-unit hidden
// layers) on the small synthetic UJI campus — the shape noble-serve's
// micro-batcher runs in production.
func benchWiFiModel(b *testing.B) (*WiFiModel, *dataset.WiFi) {
	b.Helper()
	ds := dataset.SynthUJI(dataset.SmallUJIConfig())
	cfg := DefaultWiFiConfig()
	cfg.Epochs = 1
	return TrainWiFi(ds, cfg), ds
}

// BenchmarkWiFiPredictRowByRow is the unbatched serving cost: one forward
// pass per fingerprint.
func BenchmarkWiFiPredictRowByRow(b *testing.B) {
	m, ds := benchWiFiModel(b)
	feats := ds.Test[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(feats)
	}
}

// BenchmarkWiFiPredictBatch measures amortized per-fingerprint cost when
// requests are coalesced, at the batch sizes the micro-batcher produces.
func BenchmarkWiFiPredictBatch(b *testing.B) {
	m, ds := benchWiFiModel(b)
	for _, size := range []int{8, 32, 64} {
		rows := make([][]float64, size)
		for i := range rows {
			rows[i] = ds.Test[i%len(ds.Test)].Features
		}
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/fingerprint")
		})
	}
}

// perfShapeWiFi is the untrained architecture at the shape bench/ and
// serve's DemoPerf bundles run: 160 WAPs, a {256, 256} trunk, and 1002
// fine classes (a survey lattice 4.5 m apart, each position its own
// class). Seeded-random weights cost what trained ones do.
func perfShapeWiFi() *WiFiModel {
	ds := &dataset.WiFi{NumWAPs: 160, NumBuildings: 3, NumFloors: 4}
	ds.Train = make([]dataset.WiFiSample, 1002)
	for i := range ds.Train {
		ds.Train[i].Pos.X = float64(i%34) * 4.5
		ds.Train[i].Pos.Y = float64(i/34) * 4.5
	}
	cfg := DefaultWiFiConfig()
	cfg.Hidden = []int{256, 256}
	return NewWiFiModel(ds, cfg)
}

// benchmarkWiFiPredictRows is one PredictBatch pass of the given size at
// the perf shape over fingerprints with ~30% of WAPs heard — the passes
// of one to four rows a lone device and an open-loop fleet produce, which
// mat.MatMulInto serves with the row-sweep kernels (mat.BenchmarkGemmB1–4
// has the kernels alone). gflop/s counts the model's nominal FLOPs,
// skipped zeros included.
func benchmarkWiFiPredictRows(b *testing.B, size int) {
	m := perfShapeWiFi()
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, size)
	for i := range rows {
		rows[i] = make([]float64, m.InputDim())
		for j := range rows[i] {
			if rng.Float64() >= 0.7 {
				rows[i][j] = rng.Float64()
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(rows)
	}
	b.ReportMetric(float64(m.FLOPs())*float64(size)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkWiFiPredictRows1(b *testing.B) { benchmarkWiFiPredictRows(b, 1) }
func BenchmarkWiFiPredictRows2(b *testing.B) { benchmarkWiFiPredictRows(b, 2) }
func BenchmarkWiFiPredictRows3(b *testing.B) { benchmarkWiFiPredictRows(b, 3) }
func BenchmarkWiFiPredictRows4(b *testing.B) { benchmarkWiFiPredictRows(b, 4) }
