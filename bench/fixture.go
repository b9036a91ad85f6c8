package main

import (
	"fmt"
	"math"
	"math/rand"

	"noble/client"
	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/mat"
	"noble/internal/nn/qlinear"
	"noble/internal/serve"
)

// Model names every workload and ladder rung addresses.
const (
	wifiName     = "bench-wifi"
	imuName      = "bench-imu"
	wifiInt8Name = "bench-wifi-int8"
	imuInt8Name  = "bench-imu-int8"
)

// shape is the compute shape of the models under test. The numbers are
// what the serving stack's cost depends on: fingerprint width, trunk
// width and class-head width for WiFi; the sensor protocol and trunk for
// IMU.
type shape struct {
	waps       int   // fingerprint width
	wifiRefs   int   // survey positions = fine classes
	wifiHidden []int // WiFi trunk

	imuSpacing  float64
	imuReadings int
	imuSegments int
	imuPaths    imu.PathConfig
	imuProj     int
	imuHidden   []int
	imuTau      float64
}

// perfShape mirrors serve's DemoPerf bundles: ~1000 fine classes behind a
// {256,256} trunk puts the forward pass ahead of request plumbing.
func perfShape() shape {
	return shape{
		waps: 160, wifiRefs: 1002, wifiHidden: []int{256, 256},
		imuSpacing: 8, imuReadings: 48, imuSegments: 96,
		imuPaths: imu.PathConfig{NumPaths: 400, MaxLen: 10, Frames: 5, TrainFrac: 0.7, ValFrac: 0.1, Seed: 7},
		imuProj:  16, imuHidden: []int{128, 128}, imuTau: 1.0,
	}
}

// smokeShape is the -smoke and unit-test shape: every code path, no
// meaningful timing.
func smokeShape() shape {
	return shape{
		waps: 24, wifiRefs: 60, wifiHidden: []int{32},
		imuSpacing: 12, imuReadings: 32, imuSegments: 48,
		imuPaths: imu.PathConfig{NumPaths: 160, MaxLen: 6, Frames: 3, TrainFrac: 0.7, ValFrac: 0.1, Seed: 7},
		imuProj:  8, imuHidden: []int{16, 16}, imuTau: 2,
	}
}

// newWiFiModel builds the untrained WiFi architecture over a hand-laid
// survey lattice: wifiRefs positions 4.5 m apart, each its own fine
// class. Seeded-random weights give the realistic compute shape; the
// radio simulation dataset.SynthUJI would run to produce the same class
// count costs ~14 s here and contributes nothing the engine can see.
func newWiFiModel(sh shape) *core.WiFiModel {
	const perRow, spacing = 34, 4.5
	ds := &dataset.WiFi{NumWAPs: sh.waps, NumBuildings: 3, NumFloors: 4}
	ds.Train = make([]dataset.WiFiSample, sh.wifiRefs)
	for i := range ds.Train {
		ds.Train[i].Pos.X = float64(i%perRow) * spacing
		ds.Train[i].Pos.Y = float64(i/perRow) * spacing
	}
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = sh.wifiHidden
	return core.NewWiFiModel(ds, cfg)
}

// newIMUModel builds the untrained IMU architecture over the campus-walk
// dataset at the shape's sensor protocol, and returns the dataset too
// (int8 calibration wants its validation paths).
func newIMUModel(sh shape) (*core.IMUModel, *imu.PathDataset) {
	sensors := imu.DefaultConfig()
	sensors.ReadingsPerSegment = sh.imuReadings
	sensors.TotalSegments = sh.imuSegments
	b := serve.IMUBundle{Spacing: sh.imuSpacing, Sensors: sensors, Seed: 2021, Paths: sh.imuPaths}
	ds := b.BuildIMUDataset()
	cfg := core.DefaultIMUConfig()
	cfg.ProjDim = sh.imuProj
	cfg.Hidden = sh.imuHidden
	cfg.Tau = sh.imuTau
	return core.NewIMUModel(ds, cfg), ds
}

// models is one set of freshly built models. The int8 twins are built
// only for the ladder (no end-to-end workload drives them yet).
type models struct {
	wifi, wifiInt8 *core.WiFiModel
	imu, imuInt8   *core.IMUModel
}

// buildModels builds the fp64 pair, plus the int8 twins when asked.
func buildModels(sh shape, seed int64, withInt8 bool) (*models, error) {
	m := &models{wifi: newWiFiModel(sh)}
	var ds *imu.PathDataset
	m.imu, ds = newIMUModel(sh)
	if !withInt8 {
		return m, nil
	}
	rng := rand.New(rand.NewSource(seed))
	calib := make([][]float64, 256)
	for i := range calib {
		calib[i] = synthFingerprint(rng, sh.waps)
	}
	m.wifiInt8 = newWiFiModel(sh)
	if err := m.wifiInt8.EnableInt8(&qlinear.Calibrator{Method: qlinear.CalibAbsMax}, mat.FromRows(calib)); err != nil {
		return nil, fmt.Errorf("int8 wifi twin: %w", err)
	}
	m.imuInt8, _ = newIMUModel(sh)
	if err := m.imuInt8.EnableInt8(&qlinear.Calibrator{Method: qlinear.CalibAbsMax}, ds.Validation); err != nil {
		return nil, fmt.Errorf("int8 imu twin: %w", err)
	}
	return m, nil
}

// registry registers every built model under its fixed name.
func (m *models) registry() *serve.Registry {
	reg := serve.NewRegistry("", func(string, ...any) {})
	reg.Add(&serve.Model{Name: wifiName, Kind: serve.KindWiFi, WiFi: m.wifi})
	reg.Add(&serve.Model{Name: imuName, Kind: serve.KindIMU, IMU: m.imu})
	if m.wifiInt8 != nil {
		reg.Add(&serve.Model{Name: wifiInt8Name, Kind: serve.KindWiFi, WiFi: m.wifiInt8})
		reg.Add(&serve.Model{Name: imuInt8Name, Kind: serve.KindIMU, IMU: m.imuInt8})
	}
	return reg
}

// synthFingerprint synthesizes one normalized WiFi scan: ~30% of WAPs
// heard, values rounded to 4 significant digits. Copied from
// internal/loadshape on purpose: a later change to the old harness must
// not change what this benchmark sends.
func synthFingerprint(rng *rand.Rand, dim int) []float64 {
	fp := make([]float64, dim)
	for j := range fp {
		if rng.Float64() < 0.7 {
			continue
		}
		fp[j] = math.Round(rng.Float64()*1e4) / 1e4
	}
	return fp
}

// synthSegment synthesizes one IMU segment's feature row (copied from
// internal/loadshape, same reason).
func synthSegment(rng *rand.Rand, dim int) []float64 {
	seg := make([]float64, dim)
	for j := range seg {
		seg[j] = math.Round(rng.NormFloat64()*1e3) / 1e3
	}
	return seg
}

// localizeCase is one pooled localize request with its reference answer:
// what WiFiModel.Predict says for each fingerprint, one row at a time.
type localizeCase struct {
	fps  [][]float64
	req  *client.PreparedLocalize
	want []core.WiFiPrediction
}

// localizePool builds n seeded requests of rows fingerprints each.
func localizePool(rng *rand.Rand, m *core.WiFiModel, n, rows int) []localizeCase {
	pool := make([]localizeCase, n)
	for i := range pool {
		c := &pool[i]
		c.fps = make([][]float64, rows)
		c.want = make([]core.WiFiPrediction, rows)
		for r := range c.fps {
			c.fps[r] = synthFingerprint(rng, m.InputDim())
			c.want[r] = m.Predict(c.fps[r])
		}
		c.req = client.PrepareLocalize(wifiName, c.fps...)
	}
	return pool
}

// positionsMatch compares an SDK response with the reference exactly:
// the wire prints floats in shortest round-trip form, so equality is the
// contract (DESIGN §2: a prediction does not depend on its batch).
func positionsMatch(got []client.Position, want []core.WiFiPrediction) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.X != w.Pos.X || g.Y != w.Pos.Y || g.Class != w.Class || g.Building != w.Building || g.Floor != w.Floor {
			return false
		}
	}
	return true
}

// Tracking traffic shape.
const (
	trackPool     = 64 // pooled segments and fixes, reused round-robin
	fixEvery      = 16 // WiFi re-anchor cadence in steps
	sessionWindow = 2  // decode window in segments
)

// trackScript is the seeded payload pool of the tracking sessions; every
// session walks the same pools from its own offset.
type trackScript struct {
	segs [][]float64
	fps  [][]float64
}

func newTrackScript(rng *rand.Rand, segDim, waps int) *trackScript {
	s := &trackScript{segs: make([][]float64, trackPool), fps: make([][]float64, trackPool)}
	for i := range s.segs {
		s.segs[i] = synthSegment(rng, segDim)
		s.fps[i] = synthFingerprint(rng, waps)
	}
	return s
}

// isFix reports whether a session's step carries a WiFi fix.
func isFix(step int) bool { return step > 0 && step%fixEvery == 0 }

// request builds session sess's step-th append request: create first,
// then one segment per request, carrying a WiFi fix when fix is set (the
// workload's cadence is isFix(step)).
func (s *trackScript) request(sess, step int, fix bool) client.AppendRequest {
	req := client.AppendRequest{Features: s.segs[(sess*7+step)%trackPool]}
	switch {
	case step == 0:
		req.Model, req.Start, req.Window = imuName, &client.XY{}, sessionWindow
	case fix:
		req.WiFiModel, req.Fingerprint = wifiName, s.fps[(sess*7+step)%trackPool]
	}
	return req
}

// stepObs is what one append answered, kept for off-the-clock replay.
type stepObs struct {
	x, y   float64
	class  int
	steps  int
	failed bool
}

// observeStep reduces an append's answer to a stepObs; an error, or an
// answer that is not one self-consistent step, is a failed step.
func observeStep(st client.SessionState, err error) stepObs {
	if err != nil || len(st.Results) != 1 {
		return stepObs{failed: true}
	}
	r := st.Results[0]
	if st.Position != r.End || st.Class != r.Class || st.Steps != r.Step {
		return stepObs{failed: true}
	}
	return stepObs{x: r.End.X, y: r.End.Y, class: r.Class, steps: r.Step}
}

// trackReference replays one session's script against the models
// directly — core.PathTracker plus batch-1 forward passes — and checks
// every observed step against it.
type trackReference struct {
	wifi    *core.WiFiModel
	imu     *core.IMUModel
	script  *trackScript
	sess    int
	tracker *core.PathTracker
	next    int // script step the next observation belongs to
}

// verify advances the reference over obs (the session's next steps, in
// order) and returns how many answered steps do not match it. Steps that
// failed on the wire are already counted by the caller and only skipped.
func (r *trackReference) verify(obs []stepObs) (mismatched int) {
	for _, o := range obs {
		step := r.next
		r.next++
		if o.failed {
			continue
		}
		req := r.script.request(r.sess, step, isFix(step))
		if step == 0 {
			r.tracker = r.imu.NewPathTracker(geo.Point{}, sessionWindow)
		}
		if r.tracker == nil { // the create step failed: nothing to replay onto
			mismatched++
			continue
		}
		if req.Fingerprint != nil {
			r.tracker.ReAnchor(r.wifi.Predict(req.Fingerprint).Pos)
		}
		path, err := r.tracker.Step(req.Features)
		if err != nil {
			mismatched++
			continue
		}
		pred := r.imu.PredictPaths([]imu.Path{path})[0]
		r.tracker.Commit(req.Features, pred)
		if o.x != pred.End.X || o.y != pred.End.Y || o.class != pred.Class || o.steps != r.tracker.Steps() {
			mismatched++
		}
	}
	return mismatched
}
