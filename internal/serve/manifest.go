package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/imu"
)

// Model kinds accepted in manifests.
const (
	KindWiFi = "wifi"
	KindIMU  = "imu"
)

// defaultWeightsFile is the weights filename used when a manifest omits
// one.
const defaultWeightsFile = "weights.gob"

// Manifest describes one model bundle on disk: the directory
// <models>/<name>/ holds a manifest.json in this schema next to the gob
// weight snapshot written by the model's Save. The manifest records the
// *complete* dataset-generation spec, not a preset name: model
// architecture (quantization codebook, scalers, head sizes) is
// reconstructed deterministically from the dataset, so the bundle stays
// loadable even if preset defaults drift.
type Manifest struct {
	Kind    string      `json:"kind"`              // "wifi" or "imu"
	Weights string      `json:"weights,omitempty"` // weight file, default "weights.gob"
	WiFi    *WiFiBundle `json:"wifi,omitempty"`
	IMU     *IMUBundle  `json:"imu,omitempty"`

	// Precision selects the serving tier. Nil (every pre-existing
	// bundle) means fp64; mode "int8" makes LoadBundle replay the
	// bundle's calibration artifact and re-run the accuracy gate before
	// the model is allowed to serve (see precision.go).
	Precision *PrecisionBlock `json:"precision,omitempty"`
}

// WiFiBundle reconstructs a Wi-Fi localizer: regenerate the synthetic
// survey, build the architecture, load weights.
type WiFiBundle struct {
	Plan    string             `json:"plan"` // "uji" or "ipin"
	Dataset dataset.WiFiConfig `json:"dataset"`
	Config  core.WiFiConfig    `json:"config"`
}

// IMUBundle reconstructs a tracking model from the campus-walk collection
// protocol.
type IMUBundle struct {
	Spacing float64        `json:"spacing"` // reference spacing of the campus network
	Sensors imu.Config     `json:"sensors"`
	Seed    int64          `json:"seed"`
	Paths   imu.PathConfig `json:"paths"`
	Config  core.IMUConfig `json:"config"`
}

// BuildWiFiDataset regenerates the survey a Wi-Fi bundle was trained on.
func (b *WiFiBundle) BuildWiFiDataset() (*dataset.WiFi, error) {
	switch b.Plan {
	case "uji":
		return dataset.SynthUJI(b.Dataset), nil
	case "ipin":
		return dataset.SynthIPIN(b.Dataset), nil
	default:
		return nil, fmt.Errorf("serve: unknown wifi plan %q (want uji or ipin)", b.Plan)
	}
}

// BuildIMUDataset regenerates the path dataset an IMU bundle was trained
// on.
func (b *IMUBundle) BuildIMUDataset() *imu.PathDataset {
	net := imu.NewCampusNetwork(b.Spacing)
	track := imu.Synthesize(net, b.Sensors, b.Seed)
	return imu.BuildPaths(track, b.Paths)
}

// parseManifest decodes manifest bytes and settles the weights name:
// defaulted when omitted, refused unless it is a plain file name — the
// manifest is bytes the registry did not write, and a path in it must
// not be able to name a file outside the bundle directory.
func parseManifest(raw []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, err
	}
	if man.Weights == "" {
		man.Weights = defaultWeightsFile
	}
	if w := man.Weights; w == "." || !filepath.IsLocal(w) || strings.ContainsAny(w, `/\`) {
		return nil, fmt.Errorf("weights %q is not a file name inside the bundle", w)
	}
	return &man, nil
}

// openBundle reads a bundle's manifest and opens its weights file, which
// must be a regular file (a manifest naming a directory in the bundle
// is refused here, not at the first read); the caller owns closing the
// returned file.
func openBundle(dir string) (*Manifest, *os.File, error) {
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reading bundle manifest: %w", err)
	}
	man, err := parseManifest(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: parsing %s: %w", path, err)
	}
	wf, err := os.Open(filepath.Join(dir, man.Weights))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening bundle weights: %w", err)
	}
	fi, err := wf.Stat()
	if err == nil && !fi.Mode().IsRegular() {
		err = fmt.Errorf("%q is not a regular file", man.Weights)
	}
	if err != nil {
		wf.Close()
		return nil, nil, fmt.Errorf("serve: opening bundle weights: %w", err)
	}
	return man, wf, nil
}

// restoredBundle is a bundle as its files describe it, before the
// precision tier: the fp64 model, the manifest, and the regenerated
// dataset of the model's kind (the other one is nil).
type restoredBundle struct {
	model  *Model
	man    *Manifest
	wifiDS *dataset.WiFi
	imuDS  *imu.PathDataset
}

// restoreBundle reads the bundle in dir, rebuilds the model architecture
// from the manifest's dataset spec, and restores the saved weights. The
// Model is named after the bundle directory.
func restoreBundle(dir string) (*restoredBundle, error) {
	man, wf, err := openBundle(dir)
	if err != nil {
		return nil, err
	}
	defer wf.Close()

	m := &Model{Name: filepath.Base(dir), Kind: man.Kind}
	b := &restoredBundle{model: m, man: man}
	switch man.Kind {
	case KindWiFi:
		if man.WiFi == nil {
			return nil, fmt.Errorf("serve: bundle %s: kind wifi without wifi spec", m.Name)
		}
		if b.wifiDS, err = man.WiFi.BuildWiFiDataset(); err != nil {
			return nil, err
		}
		m.WiFi = core.NewWiFiModel(b.wifiDS, man.WiFi.Config)
		err = m.WiFi.Load(wf)
	case KindIMU:
		if man.IMU == nil {
			return nil, fmt.Errorf("serve: bundle %s: kind imu without imu spec", m.Name)
		}
		b.imuDS = man.IMU.BuildIMUDataset()
		m.IMU = core.NewIMUModel(b.imuDS, man.IMU.Config)
		err = m.IMU.Load(wf)
	default:
		return nil, fmt.Errorf("serve: bundle %s: unknown kind %q", m.Name, man.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: bundle %s: %w", m.Name, err)
	}
	return b, nil
}

// LoadBundle restores the bundle in dir and — for an int8 bundle —
// replays the calibration and re-runs the accuracy gate against the
// regenerated held-out split. A bundle that fails there never reaches
// the registry.
func LoadBundle(dir string) (*Model, error) {
	b, err := restoreBundle(dir)
	if err != nil {
		return nil, err
	}
	if err := applyPrecision(dir, b.man, b.model, b.wifiDS, b.imuDS); err != nil {
		return nil, err
	}
	return b.model, nil
}

// ExtraFile is an additional bundle payload file (e.g. the int8
// calibration artifact) written atomically alongside the weights.
type ExtraFile struct {
	Name  string
	Write func(f *os.File) error
}

// WriteBundle persists a trained model as a loadable bundle at
// <dir>/<name>/. Every file is written to a temporary and renamed into
// place — weights first, then extras, manifest last — so a watching
// registry never observes a manifest without its full payload.
func WriteBundle(dir, name string, man Manifest, save func(f *os.File) error, extras ...ExtraFile) error {
	bundle := filepath.Join(dir, name)
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return fmt.Errorf("serve: creating bundle dir: %w", err)
	}
	if man.Weights == "" {
		man.Weights = defaultWeightsFile
	}
	if err := atomicWrite(filepath.Join(bundle, man.Weights), save); err != nil {
		return err
	}
	for _, ex := range extras {
		if err := atomicWrite(filepath.Join(bundle, ex.Name), ex.Write); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding manifest: %w", err)
	}
	return atomicWrite(filepath.Join(bundle, "manifest.json"), func(f *os.File) error {
		_, err := f.Write(append(raw, '\n'))
		return err
	})
}

// atomicWrite writes via a temp file in the target directory plus rename,
// reporting write, sync, close and rename errors.
func atomicWrite(path string, fill func(f *os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("serve: creating temp file: %w", err)
	}
	tmp := f.Name()
	cleanup := func() { os.Remove(tmp) }
	if err := fill(f); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("serve: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("serve: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("serve: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		cleanup()
		return fmt.Errorf("serve: publishing %s: %w", path, err)
	}
	return nil
}
