package noble

import (
	"io"
	"testing"

	"noble/internal/experiments"
)

// benchExperiment runs one paper experiment per benchmark iteration at the
// Small preset (cmd/noble-bench runs the Full preset, whose numbers are
// not recorded in the repo yet; ROADMAP direction 1(b) records them).
// Reported ns/op is the wall time of a complete
// dataset-generation + training + evaluation cycle for that table/figure.
func benchExperiment(b *testing.B, run func(experiments.Preset) *experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		report := run(experiments.Small)
		if len(report.Rows) == 0 && len(report.Artifacts) == 0 {
			b.Fatal("experiment produced an empty report")
		}
		if err := report.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1UJINoble regenerates Table I: NObLe's building/floor/
// class accuracies and position error on the UJI-like campus.
func BenchmarkTable1UJINoble(b *testing.B) { benchExperiment(b, experiments.RunTable1) }

// BenchmarkTable2Baselines regenerates Table II: Deep Regression,
// Regression Projection, Isomap and LLE regression vs NObLe.
func BenchmarkTable2Baselines(b *testing.B) { benchExperiment(b, experiments.RunTable2) }

// BenchmarkIPINComparison regenerates the §IV-B IPIN2016 comparison.
func BenchmarkIPINComparison(b *testing.B) { benchExperiment(b, experiments.RunIPIN) }

// BenchmarkTable3IMU regenerates Table III: IMU tracking errors.
func BenchmarkTable3IMU(b *testing.B) { benchExperiment(b, experiments.RunTable3) }

// BenchmarkFigure1GroundTruth regenerates Fig. 1: the ground-truth
// structure of the survey locations.
func BenchmarkFigure1GroundTruth(b *testing.B) { benchExperiment(b, experiments.RunFigure1) }

// BenchmarkFigure4Scatter regenerates Fig. 4: predicted-coordinate
// structure for all four models.
func BenchmarkFigure4Scatter(b *testing.B) { benchExperiment(b, experiments.RunFigure4) }

// BenchmarkFigure5IMUScatter regenerates Fig. 5: IMU prediction structure.
func BenchmarkFigure5IMUScatter(b *testing.B) { benchExperiment(b, experiments.RunFigure5) }

// BenchmarkEnergyWiFi regenerates §IV-C: Wi-Fi inference energy on the
// TX2-class device model.
func BenchmarkEnergyWiFi(b *testing.B) { benchExperiment(b, experiments.RunEnergyWiFi) }

// BenchmarkEnergyIMU regenerates §V-D: the IMU energy budget and the ≈27×
// GPS ratio.
func BenchmarkEnergyIMU(b *testing.B) { benchExperiment(b, experiments.RunEnergyIMU) }

// BenchmarkAblationTau regenerates ablation A1: quantization granularity.
func BenchmarkAblationTau(b *testing.B) { benchExperiment(b, experiments.RunAblationTau) }

// BenchmarkAblationHeads regenerates ablation A2: head configuration.
func BenchmarkAblationHeads(b *testing.B) { benchExperiment(b, experiments.RunAblationHeads) }

// BenchmarkAblationNoise regenerates ablation A3: input-noise robustness.
func BenchmarkAblationNoise(b *testing.B) { benchExperiment(b, experiments.RunAblationNoise) }

// BenchmarkAblationIMUArch regenerates ablation A4: the IMU location-
// module design.
func BenchmarkAblationIMUArch(b *testing.B) { benchExperiment(b, experiments.RunAblationIMUArch) }

// BenchmarkOnlineTracking regenerates extension X1: greedy vs
// map-constrained Viterbi trajectory decoding.
func BenchmarkOnlineTracking(b *testing.B) { benchExperiment(b, experiments.RunOnlineTracking) }

// BenchmarkWiFiInference measures single-fingerprint inference latency of
// a trained NObLe model — the quantity behind the paper's 2 ms claim.
func BenchmarkWiFiInference(b *testing.B) {
	ds := SynthIPIN(SmallIPINConfig())
	cfg := DefaultWiFiConfig()
	cfg.Hidden = []int{64, 64}
	cfg.Epochs = 2
	model := TrainWiFi(ds, cfg)
	features := ds.Test[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(features)
	}
}

// BenchmarkIMUInference measures single-path inference latency of the
// tracking model — behind the paper's 5 ms claim.
func BenchmarkIMUInference(b *testing.B) {
	net := NewCampusNetwork(6)
	dataCfg := DefaultIMUDataConfig()
	dataCfg.ReadingsPerSegment = 64
	dataCfg.TotalSegments = 60
	track := SynthesizeIMU(net, dataCfg, 1)
	ds := BuildIMUPaths(track, IMUPathConfig{
		NumPaths: 200, MaxLen: 8, Frames: 4,
		TrainFrac: 0.8, ValFrac: 0.1, Seed: 2,
	})
	cfg := DefaultIMUConfig()
	cfg.Hidden = []int{48, 48}
	cfg.Tau = 1.0
	cfg.Epochs = 2
	model := TrainIMU(ds, cfg)
	paths := ds.Test[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.PredictPaths(paths)
	}
}

// BenchmarkErrorCDF regenerates extension X2: the error CDF comparison.
func BenchmarkErrorCDF(b *testing.B) { benchExperiment(b, experiments.RunErrorCDF) }
