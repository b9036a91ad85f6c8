package core

import (
	"fmt"
	"io"

	"noble/internal/geo"
	"noble/internal/imu"
	"noble/internal/mat"
	"noble/internal/nn"
	"noble/internal/nn/qlinear"
	"noble/internal/quantize"
)

// IMUConfig configures TrainIMU.
type IMUConfig struct {
	ProjDim   int   // per-segment projection width (projection module output)
	Hidden    []int // displacement-module hidden sizes
	LocHidden int   // location-module hidden size
	Tau       float64

	DispWeight float64 // weight of the displacement MSE loss
	LocWeight  float64 // weight of the location cross-entropy loss

	// WireSum feeds the location module the standardized estimated end
	// position start + V (a fixed, differentiable sum wired inside the
	// module) alongside the displacement vector and the one-hot start
	// class. The information content is identical to the paper's
	// [V ⊕ one-hot] input — the sum is computable from it — but the
	// smooth encoding makes "start + displacement → end class" far
	// easier to optimize (ablation A2-IMU quantifies this; see
	// DESIGN.md).
	WireSum bool

	// StartOneHot includes the one-hot start class in the location
	// module input (the paper's encoding). Disabling it leaves only the
	// displacement vector and the wired end estimate.
	StartOneHot bool

	// GeoInit initializes the location module's output layer as the
	// geometric nearest-centroid decoder over the wired end estimate
	// (the closed-form classifier derivable from the quantizer's own
	// codebook); training then refines it. Requires WireSum and
	// LocHidden == 0.
	GeoInit bool

	Epochs    int
	BatchSize int
	LR        float64
	LRDecay   float64
	Seed      int64
	Logf      func(format string, args ...any) `json:"-"`
}

// DefaultIMUConfig returns the §V training configuration (τ = 0.4 m).
func DefaultIMUConfig() IMUConfig {
	return IMUConfig{
		ProjDim:     16,
		Hidden:      []int{128, 128},
		LocHidden:   0,
		Tau:         0.4,
		DispWeight:  3.0,
		LocWeight:   1.0,
		WireSum:     true,
		StartOneHot: true,
		GeoInit:     true,
		Epochs:      60,
		BatchSize:   64,
		LR:          0.01,
		LRDecay:     0.95,
		Seed:        1,
	}
}

// IMUModel is the trained Fig. 5(a) architecture: a shared projection over
// IMU segments, a displacement network regressing the (standardized)
// travel vector, and a location network classifying the quantized end
// position from the displacement vector plus the one-hot start class.
type IMUModel struct {
	Cfg  IMUConfig
	Grid *quantize.Grid

	proj    *nn.BlockDense
	dispNet *nn.Sequential // projection output → standardized displacement (2)
	locNet  *nn.Sequential // [displacement ⊕ one-hot start] → end class

	// int8 serving mirrors of the three modules; nil until EnableInt8.
	qproj    *qlinear.Seq
	qdispNet *qlinear.Seq
	qlocNet  *qlinear.Seq

	frames int
	maxLen int
	segDim int

	dispMean [2]float64
	dispStd  [2]float64

	startMean [2]float64
	startStd  [2]float64

	dispLoss *nn.MSE
	locLoss  *nn.SoftmaxCE
}

// IMUPrediction is one decoded tracking result.
type IMUPrediction struct {
	End          geo.Point
	Class        int
	Displacement geo.Point
}

// NewIMUModel builds the architecture for a path dataset with the given
// feature layout. The quantizer is fitted on the network's reference
// locations at τ, so every reachable end position has a class; the
// displacement scaler is fitted on the training paths.
func NewIMUModel(ds *imu.PathDataset, cfg IMUConfig) *IMUModel {
	if cfg.ProjDim <= 0 || len(cfg.Hidden) == 0 {
		panic(fmt.Sprintf("core: bad IMU config %+v", cfg))
	}
	rng := mat.NewRand(cfg.Seed)
	grid := quantize.NewGrid(cfg.Tau, ds.Net.Refs)
	segDim := imu.SegmentFeatureDim(ds.Frames)
	m := &IMUModel{
		Cfg:      cfg,
		Grid:     grid,
		frames:   ds.Frames,
		maxLen:   ds.MaxLen,
		segDim:   segDim,
		dispLoss: nn.NewMSE(),
		locLoss:  nn.NewSoftmaxCE(),
	}
	m.fitDispScaler(ds.Train)
	m.fitStartScaler(ds.Net.Refs)
	m.proj = nn.NewBlockDense("proj", ds.MaxLen, segDim, cfg.ProjDim, nn.InitXavier, rng)
	m.dispNet = nn.NewSequential()
	prev := ds.MaxLen * cfg.ProjDim
	for i, h := range cfg.Hidden {
		m.dispNet.Add(nn.NewDense(fmt.Sprintf("disp.fc%d", i), prev, h, nn.InitXavier, rng))
		m.dispNet.Add(nn.NewBatchNorm(fmt.Sprintf("disp.bn%d", i), h))
		m.dispNet.Add(nn.NewTanh())
		prev = h
	}
	m.dispNet.Add(nn.NewDense("disp.out", prev, 2, nn.InitXavier, rng))
	locIn := 2
	if cfg.WireSum {
		locIn += 2
	}
	if cfg.StartOneHot {
		locIn += grid.Classes()
	}
	if cfg.LocHidden > 0 {
		m.locNet = nn.NewSequential(
			nn.NewDense("loc.fc0", locIn, cfg.LocHidden, nn.InitXavier, rng),
			nn.NewTanh(),
			nn.NewDense("loc.out", cfg.LocHidden, grid.Classes(), nn.InitXavier, rng),
		)
	} else {
		head := nn.NewDense("loc.out", locIn, grid.Classes(), nn.InitXavier, rng)
		if cfg.GeoInit && cfg.WireSum {
			m.geoInit(head)
		}
		m.locNet = nn.NewSequential(head)
	}
	return m
}

// geoInit sets the linear location head to the closed-form nearest-
// centroid decoder over the wired end estimate ẽ: with standardized
// centroids μ̃_c, argmin_c ‖ẽ-μ̃_c‖² = argmax_c (2μ̃_c·ẽ - ‖μ̃_c‖²), which a
// softmax layer represents exactly. The displacement and one-hot columns
// start at zero and learn residual corrections (e.g. reachability priors).
func (m *IMUModel) geoInit(head *nn.Dense) {
	const sharpness = 2.0
	head.Weight.W.Zero()
	head.Bias.W.Zero()
	for c := 0; c < m.Grid.Classes(); c++ {
		mu := m.Grid.Decode(c)
		mx := (mu.X - m.startMean[0]) / m.startStd[0]
		my := (mu.Y - m.startMean[1]) / m.startStd[1]
		// Columns 2,3 of the location input are the wired estimate.
		head.Weight.W.Set(2, c, sharpness*2*mx)
		head.Weight.W.Set(3, c, sharpness*2*my)
		head.Bias.W.Set(0, c, -sharpness*(mx*mx+my*my))
	}
}

// fitStartScaler centers coordinates on the reference cloud and scales
// both axes by the typical nearest-neighbor spacing between references, so
// that adjacent location classes sit ≈1 apart in standardized space —
// the scale at which the location module separates classes.
func (m *IMUModel) fitStartScaler(refs []geo.Point) {
	m.startMean = [2]float64{}
	m.startStd = [2]float64{1, 1}
	if len(refs) == 0 {
		return
	}
	xs := make([]float64, len(refs))
	ys := make([]float64, len(refs))
	nn := make([]float64, len(refs))
	for i, r := range refs {
		xs[i], ys[i] = r.X, r.Y
		best := 1e18
		for j, q := range refs {
			if i == j {
				continue
			}
			if d := geo.Dist(r, q); d < best {
				best = d
			}
		}
		nn[i] = best
	}
	m.startMean = [2]float64{mat.Mean(xs), mat.Mean(ys)}
	spacing := mat.Median(nn)
	if spacing < 1e-9 {
		spacing = 1
	}
	m.startStd = [2]float64{spacing, spacing}
}

// fitDispScaler standardizes displacement targets so the MSE head trains
// at unit scale regardless of path lengths in meters.
func (m *IMUModel) fitDispScaler(paths []imu.Path) {
	m.dispMean = [2]float64{}
	m.dispStd = [2]float64{1, 1}
	if len(paths) == 0 {
		return
	}
	xs := make([]float64, len(paths))
	ys := make([]float64, len(paths))
	for i := range paths {
		d := paths[i].Displacement()
		xs[i], ys[i] = d.X, d.Y
	}
	m.dispMean = [2]float64{mat.Mean(xs), mat.Mean(ys)}
	m.dispStd = [2]float64{mat.Std(xs), mat.Std(ys)}
	for i := range m.dispStd {
		if m.dispStd[i] < 1e-9 {
			m.dispStd[i] = 1
		}
	}
}

// Params returns all learnable parameters.
func (m *IMUModel) Params() []*nn.Param {
	out := m.proj.Params()
	out = append(out, m.dispNet.Params()...)
	out = append(out, m.locNet.Params()...)
	return out
}

// stateParams returns parameters plus serializable layer state.
func (m *IMUModel) stateParams() []*nn.Param {
	out := m.Params()
	out = append(out, m.dispNet.StatParams()...)
	out = append(out, m.locNet.StatParams()...)
	return out
}

// inputs assembles the padded feature matrix, start descriptors (one-hot
// matrix plus raw start coordinates), standardized displacement targets
// and end classes for a slice of paths.
func (m *IMUModel) inputs(paths []imu.Path) (x, startOH, starts, disp *mat.Dense, endClass []int) {
	n := len(paths)
	x = mat.New(n, m.maxLen*m.segDim)
	startOH = mat.New(n, m.Grid.Classes())
	starts = mat.New(n, 2)
	disp = mat.New(n, 2)
	endClass = make([]int, n)
	for i := range paths {
		p := &paths[i]
		copy(x.Row(i), p.PaddedFeatures(m.maxLen, m.frames))
		startClass := m.Grid.NearestClass(p.Start)
		startOH.Set(i, startClass, 1)
		c := m.Grid.Decode(startClass)
		starts.Set(i, 0, c.X)
		starts.Set(i, 1, c.Y)
		d := p.Displacement()
		disp.Set(i, 0, (d.X-m.dispMean[0])/m.dispStd[0])
		disp.Set(i, 1, (d.Y-m.dispMean[1])/m.dispStd[1])
		endClass[i] = m.Grid.NearestClass(p.End)
	}
	return x, startOH, starts, disp, endClass
}

// locInput assembles the location module's input: the (standardized)
// displacement vector, optionally the wired standardized end estimate
// start + V, and the one-hot start class.
func (m *IMUModel) locInput(v, startOH, starts *mat.Dense) *mat.Dense {
	head := v
	if m.Cfg.WireSum {
		est := mat.New(v.Rows, 2)
		for i := 0; i < v.Rows; i++ {
			ex := starts.At(i, 0) + v.At(i, 0)*m.dispStd[0] + m.dispMean[0]
			ey := starts.At(i, 1) + v.At(i, 1)*m.dispStd[1] + m.dispMean[1]
			est.Set(i, 0, (ex-m.startMean[0])/m.startStd[0])
			est.Set(i, 1, (ey-m.startMean[1])/m.startStd[1])
		}
		head = nn.Concat(v, est)
	}
	if m.Cfg.StartOneHot {
		head = nn.Concat(head, startOH)
	}
	return head
}

// forward runs the full graph. With train=true intermediate activations
// are cached for backward.
func (m *IMUModel) forward(x, startOH, starts *mat.Dense, train bool) (v, logits *mat.Dense) {
	h := m.proj.Forward(x, train)
	v = m.dispNet.Forward(h, train)
	logits = m.locNet.Forward(m.locInput(v, startOH, starts), train)
	return v, logits
}

// step performs one training forward/backward pass and returns the
// combined loss. Gradients from the location loss flow back through the
// displacement vector (directly, and through the wired sum) into the
// displacement and projection modules, as in Fig. 5(a).
func (m *IMUModel) step(x, startOH, starts, dispTarget, locTarget *mat.Dense) float64 {
	v, logits := m.forward(x, startOH, starts, true)
	loss := m.Cfg.DispWeight*m.dispLoss.Forward(v, dispTarget) +
		m.Cfg.LocWeight*m.locLoss.Forward(logits, locTarget)

	dLogits := m.locLoss.Backward()
	dLogits.Scale(m.Cfg.LocWeight)
	dLocIn := m.locNet.Backward(dLogits)
	dVfromLoc, _ := nn.SplitCols(dLocIn, 2)
	if m.Cfg.WireSum {
		// Route the estimated-end gradient back into V through the
		// fixed affine e = (start + V·σ_d + μ_d - μ_s)/σ_s.
		rest, _ := nn.SplitCols(dLocIn, 4)
		for i := 0; i < dVfromLoc.Rows; i++ {
			dVfromLoc.Set(i, 0, dVfromLoc.At(i, 0)+rest.At(i, 2)*m.dispStd[0]/m.startStd[0])
			dVfromLoc.Set(i, 1, dVfromLoc.At(i, 1)+rest.At(i, 3)*m.dispStd[1]/m.startStd[1])
		}
	}

	dV := m.dispLoss.Backward()
	dV.Scale(m.Cfg.DispWeight)
	dV.AddInPlace(dVfromLoc)

	dH := m.dispNet.Backward(dV)
	m.proj.Backward(dH)
	return loss
}

// TrainIMU builds and trains the IMU tracking model on the dataset's
// training paths.
func TrainIMU(ds *imu.PathDataset, cfg IMUConfig) *IMUModel {
	m := NewIMUModel(ds, cfg)
	x, startOH, starts, disp, endClass := m.inputs(ds.Train)
	locTargets := m.Grid.OneHot(endClass)
	params := m.Params()
	trainCfg := nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Seed:      cfg.Seed + 1,
		Optimizer: nn.NewAdam(cfg.LR),
		LRDecay:   cfg.LRDecay,
		ClipNorm:  5,
		Logf:      cfg.Logf,
	}
	nn.Train(trainCfg, x.Rows, params, func(batch []int) float64 {
		return m.step(
			nn.SelectRows(x, batch),
			nn.SelectRows(startOH, batch),
			nn.SelectRows(starts, batch),
			nn.SelectRows(disp, batch),
			nn.SelectRows(locTargets, batch),
		)
	}, nil)
	return m
}

// PredictPaths decodes end positions for the given paths: the location
// head's argmax class is looked up for its central coordinates, and the
// displacement head's output is mapped back to meters. An empty input
// yields an empty result, so library callers need no guard of their own.
func (m *IMUModel) PredictPaths(paths []imu.Path) []IMUPrediction {
	if len(paths) == 0 {
		return nil
	}
	x, startOH, starts, _, _ := m.inputs(paths)
	var v, logits *mat.Dense
	if m.qproj != nil {
		v, logits = m.qforward(x, startOH, starts)
	} else {
		v, logits = m.forward(x, startOH, starts, false)
	}
	out := make([]IMUPrediction, len(paths))
	for i := range out {
		cls := mat.ArgMax(logits.Row(i))
		out[i] = IMUPrediction{
			End:   m.Grid.Decode(cls),
			Class: cls,
			Displacement: geo.Point{
				X: v.At(i, 0)*m.dispStd[0] + m.dispMean[0],
				Y: v.At(i, 1)*m.dispStd[1] + m.dispMean[1],
			},
		}
	}
	return out
}

// PackWeights builds the packed copy of the three modules' dense weights
// (see WiFiModel.PackWeights; a no-op on an int8 model).
func (m *IMUModel) PackWeights() {
	if m.qproj == nil {
		m.proj.Pack()
		m.dispNet.Pack()
		m.locNet.Pack()
	}
}

// PackedBytes reports the memory the packed copy holds.
func (m *IMUModel) PackedBytes() int { return nn.PackedBytes(m.Params()) }

// FLOPs estimates multiply-accumulates per single inference.
func (m *IMUModel) FLOPs() int64 {
	return m.proj.FLOPs() + m.dispNet.FLOPs() + m.locNet.FLOPs()
}

// Frames returns the per-segment time-window count the model's features
// were extracted with.
func (m *IMUModel) Frames() int { return m.frames }

// MaxLen returns the maximum path length in segments.
func (m *IMUModel) MaxLen() int { return m.maxLen }

// SegmentDim returns the per-segment feature width.
func (m *IMUModel) SegmentDim() int { return m.segDim }

// Classes returns the location-head class count.
func (m *IMUModel) Classes() int { return m.Grid.Classes() }

// Save persists the model weights and batch-norm statistics.
func (m *IMUModel) Save(w io.Writer) error { return nn.SaveParams(w, m.stateParams()) }

// Load restores weights saved by Save into an identically configured model
// built from the same dataset, dropping any packed copy of the old ones.
func (m *IMUModel) Load(r io.Reader) error { return nn.LoadParams(r, m.stateParams()) }
