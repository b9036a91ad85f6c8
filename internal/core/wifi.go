// Package core implements NObLe itself — Neighbor Oblivious Learning — for
// both of the paper's applications. The Wi-Fi model (§IV) is a multi-head
// classifier over a shared two-hidden-layer tanh trunk: the continuous
// output space is quantized into fine neighborhood classes (τ) and coarse
// classes (l), and building and floor are predicted jointly ("we can
// naturally include floor/building classification in our model without
// extra effort"). The IMU model (§V) is the projection → displacement →
// location architecture of Fig. 5(a). Neither model ever consumes
// input-space neighborhoods: closeness supervision comes only from the
// quantized output space, which is the method's defining property.
package core

import (
	"fmt"
	"io"

	"noble/internal/dataset"
	"noble/internal/geo"
	"noble/internal/mat"
	"noble/internal/nn"
	"noble/internal/nn/qlinear"
	"noble/internal/quantize"
)

// WiFiConfig configures TrainWiFi. Zero values are replaced by the paper's
// settings via Defaults.
type WiFiConfig struct {
	Hidden    []int   // trunk layer sizes; paper uses {128, 128}
	TauFine   float64 // fine grid side τ (paper: < 0.2 m... 0.4 m here; see DESIGN.md)
	TauCoarse float64 // coarse grid side l > τ

	// Head toggles (all on by default; ablation A2 switches them off).
	CoarseHead   bool
	BuildingHead bool
	FloorHead    bool

	// MultiLabel switches the fine head from softmax cross-entropy to
	// the paper's binary cross-entropy multi-label formulation with
	// adjacent cells as soft positives.
	MultiLabel     bool
	AdjacentWeight float64

	Epochs    int
	BatchSize int
	LR        float64
	LRDecay   float64
	Seed      int64
	Logf      func(format string, args ...any) `json:"-"`
}

// DefaultWiFiConfig returns the paper's Wi-Fi training configuration.
func DefaultWiFiConfig() WiFiConfig {
	return WiFiConfig{
		Hidden:         []int{128, 128},
		TauFine:        0.4,
		TauCoarse:      24,
		CoarseHead:     true,
		BuildingHead:   true,
		FloorHead:      true,
		MultiLabel:     false,
		AdjacentWeight: 0.3,
		Epochs:         30,
		BatchSize:      64,
		LR:             0.003,
		LRDecay:        0.95,
		Seed:           1,
	}
}

// WiFiModel is a trained NObLe Wi-Fi localizer.
type WiFiModel struct {
	Cfg   WiFiConfig
	Grids *quantize.MultiRes

	net          *nn.MultiHead
	qnet         *qlinear.MultiHead // int8 serving mirror; nil until EnableInt8
	numWAPs      int
	numBuildings int
	numFloors    int

	// head indices into net.Heads (-1 when disabled)
	fineHead, coarseHead, buildingHead, floorHead int
}

// WiFiPrediction is one decoded inference result.
type WiFiPrediction struct {
	Pos      geo.Point
	Class    int
	Building int
	Floor    int
}

// NewWiFiModel builds the untrained NObLe architecture for a dataset: it
// quantizes the training positions (empty cells — dead space — get no
// class) and assembles the multi-head network. The construction is
// deterministic in cfg.Seed and the dataset, so a model built twice from
// the same inputs has identical shapes — the property Load relies on when
// restoring weights from a snapshot.
func NewWiFiModel(ds *dataset.WiFi, cfg WiFiConfig) *WiFiModel {
	if len(cfg.Hidden) == 0 || cfg.Epochs <= 0 {
		panic(fmt.Sprintf("core: bad WiFi config %+v", cfg))
	}
	rng := mat.NewRand(cfg.Seed)
	positions := dataset.Positions(ds.Train)
	grids := quantize.NewMultiRes(cfg.TauFine, cfg.TauCoarse, positions)

	trunk := nn.NewMLP("trunk", ds.NumWAPs, cfg.Hidden, true, rng)
	embDim := cfg.Hidden[len(cfg.Hidden)-1]

	m := &WiFiModel{
		Cfg: cfg, Grids: grids,
		numWAPs:      ds.NumWAPs,
		numBuildings: ds.NumBuildings,
		numFloors:    ds.NumFloors,
		fineHead:     -1, coarseHead: -1, buildingHead: -1, floorHead: -1,
	}
	var heads []*nn.Head
	addHead := func(name string, classes int, loss nn.Loss, weight float64) int {
		heads = append(heads, &nn.Head{
			Name:   name,
			Layer:  nn.NewDense("head."+name, embDim, classes, nn.InitXavier, rng),
			Loss:   loss,
			Weight: weight,
		})
		return len(heads) - 1
	}
	var fineLoss nn.Loss = nn.NewSoftmaxCE()
	if cfg.MultiLabel {
		fineLoss = nn.NewBCEWithLogits()
	}
	m.fineHead = addHead("fine", grids.Fine.Classes(), fineLoss, 1.0)
	if cfg.CoarseHead {
		m.coarseHead = addHead("coarse", grids.Coarse.Classes(), nn.NewSoftmaxCE(), 0.3)
	}
	if cfg.BuildingHead {
		m.buildingHead = addHead("building", ds.NumBuildings, nn.NewSoftmaxCE(), 0.3)
	}
	if cfg.FloorHead {
		m.floorHead = addHead("floor", ds.NumFloors, nn.NewSoftmaxCE(), 0.3)
	}
	m.net = nn.NewMultiHead(trunk, heads...)
	return m
}

// TrainWiFi fits NObLe on the dataset's training split: it builds the
// architecture with NewWiFiModel and optimizes the summed cross-entropy
// objective.
func TrainWiFi(ds *dataset.WiFi, cfg WiFiConfig) *WiFiModel {
	return TrainWiFiAugmented(ds, nil, cfg)
}

// TrainWiFiAugmented fits NObLe on the dataset's training split plus
// extra samples harvested at serving time (re-anchor fixes with their
// fingerprints — the paper's free supervision). The architecture is
// built from ds alone: the quantization grids, codebook, and head sizes
// come from the seed survey, so a model retrained with any extra set
// stays load-compatible with bundles published from the same manifest
// spec. Extra positions are labeled on those fixed grids via
// nearest-class lookup (Labels never rejects a position), and extra
// building/floor labels must already lie within the dataset's
// cardinalities. With a nil extra set it is exactly TrainWiFi.
func TrainWiFiAugmented(ds *dataset.WiFi, extra []dataset.WiFiSample, cfg WiFiConfig) *WiFiModel {
	m := NewWiFiModel(ds, cfg)
	grids := m.Grids
	train := ds.Train
	if len(extra) > 0 {
		train = make([]dataset.WiFiSample, 0, len(ds.Train)+len(extra))
		train = append(train, ds.Train...)
		train = append(train, extra...)
	}
	positions := dataset.Positions(train)

	// Targets.
	x := dataset.FeaturesMatrix(train)
	fineLabels := grids.Fine.Labels(positions)
	var fineTargets *mat.Dense
	if cfg.MultiLabel {
		fineTargets = grids.Fine.AdjacencyTargets(fineLabels, cfg.AdjacentWeight)
	} else {
		fineTargets = grids.Fine.OneHot(fineLabels)
	}
	targets := make([]*mat.Dense, len(m.net.Heads))
	targets[m.fineHead] = fineTargets
	if m.coarseHead >= 0 {
		targets[m.coarseHead] = grids.Coarse.OneHot(grids.Coarse.Labels(positions))
	}
	if m.buildingHead >= 0 {
		targets[m.buildingHead] = nn.OneHotBatch(dataset.BuildingLabels(train), ds.NumBuildings)
	}
	if m.floorHead >= 0 {
		targets[m.floorHead] = nn.OneHotBatch(dataset.FloorLabels(train), ds.NumFloors)
	}

	params := m.net.Params()
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
		bx := nn.SelectRows(x, batch)
		bt := make([]*mat.Dense, len(targets))
		for i, tgt := range targets {
			if tgt != nil {
				bt[i] = nn.SelectRows(tgt, batch)
			}
		}
		return m.net.Step(bx, bt)
	}, nil)
	return m
}

// PredictMatrix runs inference on a batch of normalized fingerprints
// stacked as matrix rows and decodes each sample: the fine head's argmax
// class is looked up in the codebook for its central coordinates (§III-B),
// and the building/floor heads report their argmax (falling back to 0 when
// the head is disabled). After EnableInt8 the forward pass runs the
// quantized mirror; decoding is identical either way. A pass of more than
// passChunkRows rows runs as row chunks on up to GOMAXPROCS cores
// (splitPass), with the same answers.
func (m *WiFiModel) PredictMatrix(x *mat.Dense) []WiFiPrediction {
	preds := make([]WiFiPrediction, x.Rows)
	if x.Rows <= passChunkRows {
		m.predictInto(preds, x)
		return preds
	}
	splitPass(x.Rows, passChunkRows, func(lo, hi int) {
		m.predictInto(preds[lo:hi], mat.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols]))
	})
	return preds
}

// predictInto runs one forward pass over x and decodes row i into preds[i].
// An fp64 pass runs only the heads it decodes — fine, building, floor;
// the coarse head is read by PredictBatchHierarchical alone — and takes
// the fine class from the head's screen where the owner built one
// (ScreenFineHead): the same class, without computing the fine logits in
// fp64.
func (m *WiFiModel) predictInto(preds []WiFiPrediction, x *mat.Dense) {
	var (
		outs []*mat.Dense
		fine []int // the fine classes, when the screen answered them
	)
	if m.qnet != nil {
		outs = m.headOutputs(x)
	} else {
		outs = make([]*mat.Dense, len(m.net.Heads))
		emb := m.net.Trunk.Forward(x, false)
		for _, h := range []int{m.buildingHead, m.floorHead} {
			if h >= 0 {
				outs[h] = m.net.Heads[h].Layer.Forward(emb, false)
			}
		}
		if fine = m.fineLayer().ScreenedArgMax(emb); fine == nil {
			outs[m.fineHead] = m.net.Heads[m.fineHead].Layer.Forward(emb, false)
		}
	}
	for i := range preds {
		var cls int
		if fine != nil {
			cls = fine[i]
		} else {
			cls = mat.ArgMax(outs[m.fineHead].Row(i))
		}
		p := WiFiPrediction{Class: cls, Pos: m.Grids.Fine.Decode(cls)}
		if m.buildingHead >= 0 {
			p.Building = mat.ArgMax(outs[m.buildingHead].Row(i))
		}
		if m.floorHead >= 0 {
			p.Floor = mat.ArgMax(outs[m.floorHead].Row(i))
		}
		preds[i] = p
	}
}

// fineLayer is the fine head's projection.
func (m *WiFiModel) fineLayer() *nn.Dense { return m.net.Heads[m.fineHead].Layer.(*nn.Dense) }

// PredictBatch runs inference on a batch of normalized fingerprints given
// as raw feature rows. The rows are packed into a single matrix and pushed
// through one batched forward pass — the matmul cost is amortized across
// the whole batch instead of paying N row-by-row passes — which is what
// the serving layer's micro-batcher relies on. Every row must have
// InputDim features; it panics otherwise, mirroring FeaturesMatrix.
func (m *WiFiModel) PredictBatch(rows [][]float64) []WiFiPrediction {
	if len(rows) == 0 {
		return nil
	}
	x := mat.New(len(rows), m.numWAPs)
	for i, row := range rows {
		if len(row) != m.numWAPs {
			panic(fmt.Sprintf("core: fingerprint %d has %d features, want %d", i, len(row), m.numWAPs))
		}
		copy(x.Row(i), row)
	}
	return m.PredictMatrix(x)
}

// Predict runs single-sample inference.
func (m *WiFiModel) Predict(features []float64) WiFiPrediction {
	x := mat.FromSlice(1, len(features), append([]float64(nil), features...))
	return m.PredictMatrix(x)[0]
}

// PackWeights builds the packed copy of the trunk's and the building and
// floor heads' weights, which fp64 passes of mat.PackedMinRows or more
// rows then read instead of the row-major weights — same answers, bit
// for bit (DESIGN.md §2). The fine head is left out: its passes take
// their class from its screen (ScreenFineHead), and its logits are read
// only by PredictTopK and PredictBatchHierarchical, which run on the
// row-major weights. It costs one more copy of those weights in memory
// and about a millisecond, so it is the caller's decision: serve
// packs a placed model on its first pass large enough to use it.
// Idempotent and safe alongside concurrent Predict calls. Load and
// training drop the copy; an int8 model never reads fp64 weights on its
// serving path, so for it this is a no-op.
func (m *WiFiModel) PackWeights() {
	if m.qnet != nil {
		return
	}
	m.net.Trunk.Pack()
	for _, h := range []int{m.buildingHead, m.floorHead} {
		if h >= 0 {
			m.net.Heads[h].Layer.(*nn.Dense).Pack()
		}
	}
}

// PackedBytes reports the memory the packed copy holds: 0 until
// PackWeights, and again after Load or training.
func (m *WiFiModel) PackedBytes() int { return nn.PackedBytes(m.net.Params()) }

// ScreenFineHead builds the fine head's screen (mat.Screen): an fp32
// copy of its weights with an error bound, from which fp64 passes of
// every size take their fine class — the same class, bit for bit
// (DESIGN.md §2) — reading half the bytes the fp64 head would at twice
// its rate. It costs ~1 MB at the perf shape's 256×1002 head and one to
// two milliseconds, so like PackWeights it is the caller's decision:
// serve builds it on a placed model's first pass. Idempotent and safe
// alongside concurrent Predict calls; Load and training drop it; a no-op
// on an int8 model and on hosts without the AVX kernels.
func (m *WiFiModel) ScreenFineHead() {
	if m.qnet == nil {
		m.fineLayer().Screen()
	}
}

// ScreenBytes reports the memory the fine head's screen holds: 0 until
// ScreenFineHead, and again after Load or training.
func (m *WiFiModel) ScreenBytes() int { return nn.ScreenBytes(m.fineLayer().Params()) }

// InputDim returns the fingerprint dimensionality (number of WAPs) the
// model consumes.
func (m *WiFiModel) InputDim() int { return m.numWAPs }

// NumBuildings returns the building-head cardinality the model was built
// with.
func (m *WiFiModel) NumBuildings() int { return m.numBuildings }

// NumFloors returns the floor-head cardinality the model was built with.
func (m *WiFiModel) NumFloors() int { return m.numFloors }

// Embed returns the trunk's penultimate-layer embedding for a batch — the
// learned manifold representation of §III-C.
func (m *WiFiModel) Embed(x *mat.Dense) *mat.Dense {
	emb, _ := m.net.Forward(x, false)
	return emb
}

// FLOPs estimates multiply-accumulate operations per single inference,
// consumed by the energy model.
func (m *WiFiModel) FLOPs() int64 { return m.net.FLOPs() }

// Classes returns the fine neighborhood class count.
func (m *WiFiModel) Classes() int { return m.Grids.Fine.Classes() }

// Save serializes the network parameters and batch-norm statistics (the
// quantization codebook is reconstructed deterministically from the
// dataset, so it is not persisted).
func (m *WiFiModel) Save(w io.Writer) error {
	return nn.SaveParams(w, append(m.net.Params(), m.net.StatParams()...))
}

// Load restores parameters saved by Save into a model built with the same
// configuration and dataset, dropping any packed copy of the old ones.
func (m *WiFiModel) Load(r io.Reader) error {
	return nn.LoadParams(r, append(m.net.Params(), m.net.StatParams()...))
}
