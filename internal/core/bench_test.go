package core

import (
	"fmt"
	"math/rand"
	"testing"

	"noble/internal/dataset"
	"noble/internal/imu"
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

// perfShapeWiFi is the untrained architecture at the shape bench/ serves
// (bench/fixture.go's perfShape): 160 WAPs, a {256, 256} trunk, and 1002
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
// the perf shape, weights packed and the fine head screened as serve
// builds them, over fingerprints with ~30% of WAPs heard. One to four
// rows are the passes a lone device and an open-loop fleet produce: the
// trunk runs on mat.MatMulInto's row-sweep kernels (mat.BenchmarkGemmB1–4
// has the kernels alone) and the fine class comes from the screen; 8 to
// 32 rows are a localize_bulk request's pass and the chunk sizes
// splitPass could cut it into — run them at -cpu 1,2 to see the one-core
// rate per chunk size and what the second core buys a split pass. gflop/s
// counts the model's nominal FLOPs, skipped zeros included.
func benchmarkWiFiPredictRows(b *testing.B, size int) {
	m := perfShapeWiFi()
	m.PackWeights()
	m.ScreenFineHead()
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

func BenchmarkWiFiPredictRows1(b *testing.B)  { benchmarkWiFiPredictRows(b, 1) }
func BenchmarkWiFiPredictRows2(b *testing.B)  { benchmarkWiFiPredictRows(b, 2) }
func BenchmarkWiFiPredictRows3(b *testing.B)  { benchmarkWiFiPredictRows(b, 3) }
func BenchmarkWiFiPredictRows4(b *testing.B)  { benchmarkWiFiPredictRows(b, 4) }
func BenchmarkWiFiPredictRows8(b *testing.B)  { benchmarkWiFiPredictRows(b, 8) }
func BenchmarkWiFiPredictRows16(b *testing.B) { benchmarkWiFiPredictRows(b, 16) }
func BenchmarkWiFiPredictRows24(b *testing.B) { benchmarkWiFiPredictRows(b, 24) }
func BenchmarkWiFiPredictRows32(b *testing.B) { benchmarkWiFiPredictRows(b, 32) }

// benchShapeIMU is the untrained IMU architecture at the shape bench/
// serves: the campus walk at 8 m spacing, paths of up to 10 segments of 5
// frames, a 16-wide projection and a {128, 128} displacement module.
func benchShapeIMU() (*IMUModel, []imu.Path) {
	sensors := imu.DefaultConfig()
	sensors.ReadingsPerSegment = 48
	sensors.TotalSegments = 96
	track := imu.Synthesize(imu.NewCampusNetwork(8), sensors, 2021)
	ds := imu.BuildPaths(track, imu.PathConfig{NumPaths: 400, MaxLen: 10, Frames: 5, TrainFrac: 0.7, ValFrac: 0.1, Seed: 7})
	cfg := DefaultIMUConfig()
	cfg.ProjDim = 16
	cfg.Hidden = []int{128, 128}
	cfg.Tau = 1.0
	return NewIMUModel(ds, cfg), ds.Test
}

// benchmarkIMUPredictPaths is one PredictPaths pass of size paths at the
// bench shape, weights packed; with chunk > 0 the pass is instead cut into
// chunk-path PredictPaths calls run by splitPass, which is what the
// helper would buy the track batcher's passes at -cpu 2. A track pass is
// as large as the number of sessions stepping at once: one or two on
// bench's track_durable, up to 16 under `noble-loadgen -mode track
// -concurrency 16`.
func benchmarkIMUPredictPaths(b *testing.B, size, chunk int) {
	m, test := benchShapeIMU()
	m.PackWeights()
	paths := cycleRows(test, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chunk == 0 {
			m.PredictPaths(paths)
			continue
		}
		splitPass(size, chunk, func(lo, hi int) { m.PredictPaths(paths[lo:hi]) })
	}
	b.ReportMetric(float64(m.FLOPs())*float64(size)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkIMUPredictPathsRows2(b *testing.B)   { benchmarkIMUPredictPaths(b, 2, 0) }
func BenchmarkIMUPredictPathsRows8(b *testing.B)   { benchmarkIMUPredictPaths(b, 8, 0) }
func BenchmarkIMUPredictPathsRows16(b *testing.B)  { benchmarkIMUPredictPaths(b, 16, 0) }
func BenchmarkIMUPredictPathsSplit16(b *testing.B) { benchmarkIMUPredictPaths(b, 16, 8) }
