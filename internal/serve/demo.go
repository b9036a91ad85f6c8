package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/imu"
)

// Demo bundle scales. Every scale trains the same four bundles —
// demo-wifi, demo-imu, plus their int8 twins demo-wifi-int8 and
// demo-imu-int8 published through the accuracy gate — so every tool
// that self-provisions models exercises both precision tiers.
const (
	// DemoTiny shrinks everything to train in seconds: enough to
	// exercise every serving path (CI smoke, crash-recovery, unit
	// tests), useless for absolute performance numbers.
	DemoTiny = "tiny"
	// DemoFull is sized like the paper's UJI deployment; expect minutes
	// of one-time training.
	DemoFull = "full"
)

// demoSpec is one scale's complete training recipe.
type demoSpec struct {
	note    string
	wifiDS  dataset.WiFiConfig
	wifiCfg core.WiFiConfig
	imuB    IMUBundle
	imuCfg  core.IMUConfig

	// int8Budget is the gate budget written into the twin bundles'
	// manifests; 0 means the DefaultErrorBudgetPct.
	int8Budget float64
}

func demoSpecFor(scale string) (demoSpec, error) {
	var s demoSpec
	// Shared IMU collection protocol defaults; scales override below.
	sensors := imu.DefaultConfig()
	switch scale {
	case DemoFull:
		// Production-scale survey: a 3.5 m survey grid across the
		// synthetic campus yields ~1650 neighborhood classes — the same
		// order as the real UJIIndoorLoc deployment (933 reference
		// locations, and denser in XY once its four floors project onto
		// one fine grid). The class-head width is the serving hot path,
		// so the demo model exercises the batching engine at deployment
		// scale.
		s.note = "paper scale, takes a few minutes"
		s.wifiDS = dataset.DefaultUJIConfig()
		s.wifiDS.RefSpacing = 3.5
		s.wifiDS.SamplesPerRef = 4
		s.wifiCfg = core.DefaultWiFiConfig()
		s.wifiCfg.Epochs = 8

		sensors.ReadingsPerSegment = 96
		sensors.TotalSegments = 160
		s.imuB = IMUBundle{Spacing: 6, Sensors: sensors, Seed: 2021, Paths: imu.PathConfig{
			NumPaths: 1200, MaxLen: 12, Frames: 6,
			TrainFrac: 4389.0 / 6857.0, ValFrac: 1096.0 / 6857.0, Seed: 7,
		}}
		s.imuCfg = core.DefaultIMUConfig()
		s.imuCfg.Hidden = []int{64, 64}
		s.imuCfg.Epochs = 20
		s.imuCfg.Tau = 1.0
	case DemoTiny:
		s.note = "tiny scale, a few seconds"
		s.wifiDS = dataset.DefaultUJIConfig()
		s.wifiDS.NumWAPs = 24
		s.wifiDS.RefSpacing = 10
		s.wifiDS.SamplesPerRef = 2
		s.wifiCfg = core.DefaultWiFiConfig()
		s.wifiCfg.Hidden = []int{32}
		s.wifiCfg.Epochs = 3

		sensors.ReadingsPerSegment = 32
		sensors.TotalSegments = 48
		s.imuB = IMUBundle{Spacing: 12, Sensors: sensors, Seed: 2021, Paths: imu.PathConfig{
			NumPaths: 160, MaxLen: 6, Frames: 3,
			TrainFrac: 0.7, ValFrac: 0.1, Seed: 7,
		}}
		s.imuCfg = core.DefaultIMUConfig()
		s.imuCfg.ProjDim = 8
		s.imuCfg.Hidden = []int{16, 16}
		s.imuCfg.Tau = 2
		s.imuCfg.Epochs = 4
		// Tiny models are barely trained, so their (already small)
		// localization error is noisier under quantization than the
		// production-scale bundles'; give the gate headroom while
		// keeping it far below the hand-edit cap.
		s.int8Budget = 5.0
	default:
		return s, fmt.Errorf("serve: unknown demo scale %q (want %s or %s)", scale, DemoTiny, DemoFull)
	}
	return s, nil
}

// TrainDemoBundles trains a Wi-Fi localizer ("demo-wifi") and IMU
// tracker ("demo-imu") at the named scale (DemoTiny or DemoFull) and
// publishes them as bundles under dir, each alongside an int8 twin
// ("demo-wifi-int8", "demo-imu-int8") calibrated and passed through the
// accuracy gate. Bundles that already exist are kept — an int8 twin
// missing next to an existing base bundle is rebuilt from the base
// bundle's weights, not retrained. `noble-serve -demo`/`-demo-tiny` and
// the tests that need real bundles all train through here.
func TrainDemoBundles(dir string, scale string, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	spec, err := demoSpecFor(scale)
	if err != nil {
		return err
	}
	if err := ensureWiFiDemo(dir, spec, logf); err != nil {
		return err
	}
	return ensureIMUDemo(dir, spec, logf)
}

func bundleExists(dir, name string) bool {
	_, err := os.Stat(filepath.Join(dir, name, "manifest.json"))
	return err == nil
}

func ensureWiFiDemo(dir string, spec demoSpec, logf func(string, ...any)) error {
	needBase := !bundleExists(dir, "demo-wifi")
	needInt8 := !bundleExists(dir, "demo-wifi-int8")
	if !needBase && !needInt8 {
		return nil
	}
	wifi := &WiFiBundle{Plan: "uji", Dataset: spec.wifiDS, Config: spec.wifiCfg}
	var model *core.WiFiModel
	var ds *dataset.WiFi
	if needBase {
		logf("training demo-wifi (%s)...", spec.note)
		ds = dataset.SynthUJI(spec.wifiDS)
		logf("demo-wifi: %d train samples, %d WAPs", len(ds.Train), ds.NumWAPs)
		start := time.Now()
		model = core.TrainWiFi(ds, spec.wifiCfg)
		logf("demo-wifi: %d classes, trained in %v", model.Classes(), time.Since(start).Round(time.Millisecond))
		if err := WriteBundle(dir, "demo-wifi", Manifest{Kind: KindWiFi, WiFi: wifi},
			func(f *os.File) error { return model.Save(f) }); err != nil {
			return err
		}
	} else {
		// Rebuild the int8 twin from the existing base bundle rather
		// than retraining: the twin must shadow the weights actually
		// being served. The base manifest's spec wins over ours — the
		// directory may hold a different scale.
		base, err := restoreBundle(filepath.Join(dir, "demo-wifi"))
		if err == nil && base.man.Kind != KindWiFi {
			err = fmt.Errorf("it is a %s bundle", base.man.Kind)
		}
		if err != nil {
			return fmt.Errorf("serve: rebuilding demo-wifi-int8 from existing base: %w", err)
		}
		model, ds, wifi = base.model.WiFi, base.wifiDS, base.man.WiFi
	}
	if needInt8 {
		logf("calibrating demo-wifi-int8 (accuracy gate, budget %.1f%%)...",
			nonzeroOr(spec.int8Budget, DefaultErrorBudgetPct))
		cal, err := QuantizeWiFiModel(model, ds, QuantizeOptions{BudgetPct: spec.int8Budget})
		if err != nil {
			return err
		}
		logf("demo-wifi-int8: gate passed, mean error %.2f m -> %.2f m (%+.2f%%)",
			cal.FP64MeanErr, cal.Int8MeanErr, cal.DeltaPct)
		return WriteBundle(dir, "demo-wifi-int8", Manifest{
			Kind: KindWiFi, WiFi: wifi,
			Precision: &PrecisionBlock{Mode: core.PrecisionInt8, ErrorBudgetPct: spec.int8Budget},
		}, func(f *os.File) error { return model.Save(f) },
			CalibrationExtra(defaultCalibrationFile, cal))
	}
	return nil
}

func ensureIMUDemo(dir string, spec demoSpec, logf func(string, ...any)) error {
	needBase := !bundleExists(dir, "demo-imu")
	needInt8 := !bundleExists(dir, "demo-imu-int8")
	if !needBase && !needInt8 {
		return nil
	}
	bundle := spec.imuB
	bundle.Config = spec.imuCfg
	var model *core.IMUModel
	var ds *imu.PathDataset
	if needBase {
		logf("training demo-imu (%s)...", spec.note)
		ds = bundle.BuildIMUDataset()
		start := time.Now()
		model = core.TrainIMU(ds, spec.imuCfg)
		logf("demo-imu: %d classes, trained in %v", model.Classes(), time.Since(start).Round(time.Millisecond))
		if err := WriteBundle(dir, "demo-imu", Manifest{Kind: KindIMU, IMU: &bundle},
			func(f *os.File) error { return model.Save(f) }); err != nil {
			return err
		}
	} else {
		base, err := restoreBundle(filepath.Join(dir, "demo-imu"))
		if err == nil && base.man.Kind != KindIMU {
			err = fmt.Errorf("it is a %s bundle", base.man.Kind)
		}
		if err != nil {
			return fmt.Errorf("serve: rebuilding demo-imu-int8 from existing base: %w", err)
		}
		model, ds, bundle = base.model.IMU, base.imuDS, *base.man.IMU
	}
	if needInt8 {
		logf("calibrating demo-imu-int8 (accuracy gate, budget %.1f%%)...",
			nonzeroOr(spec.int8Budget, DefaultErrorBudgetPct))
		cal, err := QuantizeIMUModel(model, ds, QuantizeOptions{BudgetPct: spec.int8Budget})
		if err != nil {
			return err
		}
		logf("demo-imu-int8: gate passed, mean error %.2f m -> %.2f m (%+.2f%%)",
			cal.FP64MeanErr, cal.Int8MeanErr, cal.DeltaPct)
		return WriteBundle(dir, "demo-imu-int8", Manifest{
			Kind: KindIMU, IMU: &bundle,
			Precision: &PrecisionBlock{Mode: core.PrecisionInt8, ErrorBudgetPct: spec.int8Budget},
		}, func(f *os.File) error { return model.Save(f) },
			CalibrationExtra(defaultCalibrationFile, cal))
	}
	return nil
}

func nonzeroOr(v, def float64) float64 {
	if v != 0 {
		return v
	}
	return def
}
