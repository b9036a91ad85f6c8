package noble

import (
	"io"

	"noble/internal/experiments"
)

// Preset selects experiment scale: Small (seconds per experiment, used by
// the benchmarks) or Full (paper scale; its numbers are not recorded in
// the repo yet, and ROADMAP direction 1(b) records them).
type Preset = experiments.Preset

// Experiment presets.
const (
	Small = experiments.Small
	Full  = experiments.Full
)

// Report is a rendered experiment result with paper-vs-measured rows.
type Report = experiments.Report

// Experiment is one registered paper table/figure runner.
type Experiment = experiments.Runner

// Experiments returns every table/figure runner in DESIGN.md §3 order.
func Experiments() []Experiment { return experiments.All() }

// RunAllExperiments executes the whole suite at the preset, streaming each
// report to w.
func RunAllExperiments(p Preset, w io.Writer) error { return experiments.RunAll(p, w) }

// Individual runners (see DESIGN.md §3 for the experiment index).

// RunTable1 reproduces Table I (NObLe accuracies and errors on UJI).
func RunTable1(p Preset) *Report { return experiments.RunTable1(p) }

// RunTable2 reproduces Table II (comparative baselines on UJI).
func RunTable2(p Preset) *Report { return experiments.RunTable2(p) }

// RunIPIN reproduces the §IV-B IPIN2016 comparison.
func RunIPIN(p Preset) *Report { return experiments.RunIPIN(p) }

// RunTable3 reproduces Table III (IMU tracking errors).
func RunTable3(p Preset) *Report { return experiments.RunTable3(p) }

// RunFigure1 reproduces Fig. 1 (ground-truth structure).
func RunFigure1(p Preset) *Report { return experiments.RunFigure1(p) }

// RunFigure4 reproduces Fig. 4 (prediction structure scatters).
func RunFigure4(p Preset) *Report { return experiments.RunFigure4(p) }

// RunFigure5 reproduces Fig. 5 (IMU prediction scatters).
func RunFigure5(p Preset) *Report { return experiments.RunFigure5(p) }

// RunEnergyWiFi reproduces §IV-C (Wi-Fi inference energy).
func RunEnergyWiFi(p Preset) *Report { return experiments.RunEnergyWiFi(p) }

// RunEnergyIMU reproduces §V-D (IMU energy budget and the 27× GPS ratio).
func RunEnergyIMU(p Preset) *Report { return experiments.RunEnergyIMU(p) }

// RunAblationTau sweeps the quantization cell side τ.
func RunAblationTau(p Preset) *Report { return experiments.RunAblationTau(p) }

// RunAblationHeads ablates the multi-head configuration.
func RunAblationHeads(p Preset) *Report { return experiments.RunAblationHeads(p) }

// RunAblationNoise sweeps input noise against neighbor-aware baselines.
func RunAblationNoise(p Preset) *Report { return experiments.RunAblationNoise(p) }

// RunAblationIMUArch ablates the IMU location-module design.
func RunAblationIMUArch(p Preset) *Report { return experiments.RunAblationIMUArch(p) }

// RunOnlineTracking runs the X1 extension: greedy vs map-constrained
// Viterbi trajectory decoding on an unseen walk.
func RunOnlineTracking(p Preset) *Report { return experiments.RunOnlineTracking(p) }

// RunErrorCDF runs the X2 extension: the cumulative error distribution of
// NObLe vs Deep Regression.
func RunErrorCDF(p Preset) *Report { return experiments.RunErrorCDF(p) }
