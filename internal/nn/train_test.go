package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"

	"noble/internal/mat"
)

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ½‖w - c‖².
	p := NewParam("w", 1, 3)
	c := []float64{1, -2, 3}
	opt := NewSGD(0.1, 0.0)
	for i := 0; i < 200; i++ {
		for j := range p.W.Data {
			p.G.Data[j] = p.W.Data[j] - c[j]
		}
		opt.Step([]*Param{p})
		ZeroGrads([]*Param{p})
	}
	for j, want := range c {
		if math.Abs(p.W.Data[j]-want) > 1e-6 {
			t.Fatalf("w[%d]=%v want %v", j, p.W.Data[j], want)
		}
	}
}

func TestSGDMomentumFasterOnIllConditioned(t *testing.T) {
	run := func(momentum float64) int {
		p := NewParam("w", 1, 2)
		p.W.SetRow(0, []float64{5, 5})
		opt := NewSGD(0.02, momentum)
		for i := 0; i < 3000; i++ {
			// f = ½(w0² + 20·w1²) — ill-conditioned bowl.
			p.G.Data[0] = p.W.Data[0]
			p.G.Data[1] = 20 * p.W.Data[1]
			opt.Step([]*Param{p})
			ZeroGrads([]*Param{p})
			if math.Abs(p.W.Data[0]) < 1e-4 && math.Abs(p.W.Data[1]) < 1e-4 {
				return i
			}
		}
		return 3000
	}
	plain, withMomentum := run(0), run(0.9)
	if withMomentum >= plain {
		t.Fatalf("momentum (%d iters) should beat plain SGD (%d iters)", withMomentum, plain)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.W.SetRow(0, []float64{4, -4})
	opt := NewAdam(0.05)
	for i := 0; i < 1000; i++ {
		p.G.Data[0] = p.W.Data[0]
		p.G.Data[1] = 100 * p.W.Data[1]
		opt.Step([]*Param{p})
		ZeroGrads([]*Param{p})
	}
	if math.Abs(p.W.Data[0]) > 1e-3 || math.Abs(p.W.Data[1]) > 1e-3 {
		t.Fatalf("Adam failed to converge: %v", p.W.Data)
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.W.Data[0] = 1
	opt := NewSGD(0.1, 0)
	opt.WeightDecay = 0.5
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if p.W.Data[0] >= 1 {
		t.Fatal("weight decay must shrink weights")
	}
}

func TestScaleLR(t *testing.T) {
	sgd := NewSGD(1.0, 0)
	sgd.ScaleLR(0.5)
	if sgd.LR != 0.5 {
		t.Fatalf("SGD LR=%v", sgd.LR)
	}
	adam := NewAdam(1.0)
	adam.ScaleLR(0.1)
	if math.Abs(adam.LR-0.1) > 1e-15 {
		t.Fatalf("Adam LR=%v", adam.LR)
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.G.SetRow(0, []float64{3, 4}) // norm 5
	ClipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.G.Data[0], p.G.Data[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm=%v", norm)
	}
	// No-op cases.
	p.G.SetRow(0, []float64{0.1, 0.1})
	before := append([]float64(nil), p.G.Data...)
	ClipGrads([]*Param{p}, 10)
	ClipGrads([]*Param{p}, 0)
	for i := range before {
		if p.G.Data[i] != before[i] {
			t.Fatal("ClipGrads must not touch small gradients")
		}
	}
}

// xorProblem returns the classic non-linearly-separable toy task.
func xorProblem() (x, y *mat.Dense) {
	x = mat.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y = mat.FromRows([][]float64{{0}, {1}, {1}, {0}})
	return
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := mat.NewRand(30)
	net := NewSequential(
		NewDense("fc1", 2, 8, InitXavier, rng),
		NewTanh(),
		NewDense("fc2", 8, 1, InitXavier, rng),
	)
	x, y := xorProblem()
	loss := NewMSE()
	params := net.Params()
	cfg := TrainConfig{
		Epochs:    800,
		BatchSize: 4,
		Seed:      1,
		Optimizer: NewAdam(0.02),
	}
	final := Train(cfg, x.Rows, params, func(batch []int) float64 {
		bx, by := SelectRows(x, batch), SelectRows(y, batch)
		out := net.Forward(bx, true)
		l := loss.Forward(out, by)
		net.Backward(loss.Backward())
		return l
	}, nil)
	if final > 0.01 {
		t.Fatalf("XOR final loss %v", final)
	}
	pred := net.Forward(x, false)
	for i := 0; i < 4; i++ {
		if math.Abs(pred.At(i, 0)-y.At(i, 0)) > 0.25 {
			t.Fatalf("XOR pred[%d]=%v want %v", i, pred.At(i, 0), y.At(i, 0))
		}
	}
}

func TestTrainEarlyStop(t *testing.T) {
	p := NewParam("w", 1, 1)
	epochs := 0
	Train(TrainConfig{Epochs: 100, BatchSize: 1, Optimizer: NewSGD(0.1, 0)}, 2, []*Param{p},
		func(batch []int) float64 { return 0 },
		func(s EpochStats) bool {
			epochs++
			return s.Epoch >= 4 // stop after 5 epochs
		})
	if epochs != 5 {
		t.Fatalf("ran %d epochs want 5", epochs)
	}
}

func TestTrainLRDecayApplied(t *testing.T) {
	p := NewParam("w", 1, 1)
	opt := NewSGD(1.0, 0)
	Train(TrainConfig{Epochs: 3, BatchSize: 1, Optimizer: opt, LRDecay: 0.5}, 1, []*Param{p},
		func(batch []int) float64 { return 0 }, nil)
	if math.Abs(opt.LR-0.125) > 1e-12 {
		t.Fatalf("LR after 3 decays = %v want 0.125", opt.LR)
	}
}

func TestTrainDeterministic(t *testing.T) {
	run := func() float64 {
		rng := mat.NewRand(55)
		net := NewSequential(
			NewDense("fc1", 2, 4, InitXavier, rng),
			NewTanh(),
			NewDense("fc2", 4, 1, InitXavier, rng),
		)
		x, y := xorProblem()
		loss := NewMSE()
		return Train(TrainConfig{Epochs: 20, BatchSize: 2, Seed: 9, Optimizer: NewAdam(0.01)},
			x.Rows, net.Params(), func(batch []int) float64 {
				bx, by := SelectRows(x, batch), SelectRows(y, batch)
				out := net.Forward(bx, true)
				l := loss.Forward(out, by)
				net.Backward(loss.Backward())
				return l
			}, nil)
	}
	if run() != run() {
		t.Fatal("training must be bit-deterministic for a fixed seed")
	}
}

func TestMultiHeadStepDecreasesLoss(t *testing.T) {
	rng := mat.NewRand(31)
	trunk := NewSequential(
		NewDense("fc", 3, 16, InitXavier, rng),
		NewTanh(),
	)
	headA := &Head{Name: "cls", Layer: NewDense("ha", 16, 4, InitXavier, rng), Loss: NewSoftmaxCE(), Weight: 1}
	headB := &Head{Name: "reg", Layer: NewDense("hb", 16, 2, InitXavier, rng), Loss: NewMSE(), Weight: 0.5}
	m := NewMultiHead(trunk, headA, headB)

	x := mat.New(32, 3)
	mat.FillNormal(x, rng, 0, 1)
	cls := make([]int, 32)
	reg := mat.New(32, 2)
	for i := 0; i < 32; i++ {
		cls[i] = i % 4
		reg.Set(i, 0, float64(cls[i]))
		reg.Set(i, 1, -float64(cls[i]))
	}
	targets := []*mat.Dense{OneHotBatch(cls, 4), reg}

	opt := NewAdam(0.01)
	params := m.Params()
	first := m.Step(x, targets)
	opt.Step(params)
	ZeroGrads(params)
	var last float64
	for i := 0; i < 200; i++ {
		last = m.Step(x, targets)
		opt.Step(params)
		ZeroGrads(params)
	}
	if last >= first/2 {
		t.Fatalf("multi-head loss %v → %v: insufficient progress", first, last)
	}
}

func TestMultiHeadNilTargetSkipsHead(t *testing.T) {
	rng := mat.NewRand(32)
	trunk := NewSequential(NewDense("fc", 2, 4, InitXavier, rng), NewTanh())
	headA := &Head{Name: "a", Layer: NewDense("ha", 4, 2, InitXavier, rng), Loss: NewSoftmaxCE(), Weight: 1}
	headB := &Head{Name: "b", Layer: NewDense("hb", 4, 1, InitXavier, rng), Loss: NewMSE(), Weight: 1}
	m := NewMultiHead(trunk, headA, headB)
	x := mat.New(4, 2)
	mat.FillNormal(x, rng, 0, 1)
	loss := m.Step(x, []*mat.Dense{OneHotBatch([]int{0, 1, 0, 1}, 2), nil})
	if math.IsNaN(loss) {
		t.Fatal("loss NaN")
	}
	for _, p := range headB.Layer.Params() {
		if p.G.Norm() != 0 {
			t.Fatal("skipped head must receive no gradient")
		}
	}
	for _, p := range headA.Layer.Params() {
		if p.G.Norm() == 0 {
			t.Fatal("active head must receive gradient")
		}
	}
}

func TestMultiHeadForwardShapes(t *testing.T) {
	rng := mat.NewRand(33)
	trunk := NewSequential(NewDense("fc", 5, 7, InitXavier, rng))
	h := &Head{Name: "h", Layer: NewDense("h", 7, 3, InitXavier, rng), Loss: NewSoftmaxCE(), Weight: 1}
	m := NewMultiHead(trunk, h)
	emb, outs := m.Forward(mat.New(2, 5), false)
	if emb.Cols != 7 || len(outs) != 1 || outs[0].Cols != 3 {
		t.Fatalf("shapes: emb %d, outs %d", emb.Cols, outs[0].Cols)
	}
	if m.FLOPs() <= 0 {
		t.Fatal("FLOPs must be positive")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := mat.NewRand(34)
	net := NewSequential(
		NewDense("fc1", 3, 5, InitXavier, rng),
		NewBatchNorm("bn", 5),
		NewTanh(),
		NewDense("fc2", 5, 2, InitXavier, rng),
	)
	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	rng2 := mat.NewRand(99)
	net2 := NewSequential(
		NewDense("fc1", 3, 5, InitXavier, rng2),
		NewBatchNorm("bn", 5),
		NewTanh(),
		NewDense("fc2", 5, 2, InitXavier, rng2),
	)
	if err := LoadParams(&buf, net2.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if !mat.Equal(p.W, net2.Params()[i].W, 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

func TestLoadParamsMismatchErrors(t *testing.T) {
	rng := mat.NewRand(35)
	a := NewDense("a", 2, 2, InitXavier, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	wrongName := NewDense("b", 2, 2, InitXavier, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), wrongName.Params()); err == nil {
		t.Fatal("name mismatch must error")
	}
	wrongShape := NewDense("a", 2, 3, InitXavier, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), wrongShape.Params()); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("count mismatch must error")
	}
}

func TestLoadParamsGarbageErrors(t *testing.T) {
	if err := LoadParams(bytes.NewReader([]byte("not gob")), nil); err == nil {
		t.Fatal("garbage input must error")
	}
}

// A snapshot is bytes from disk: one whose three lists disagree in length
// (truncated, or crafted) or that carries a non-finite weight must come
// back as an error — never an index panic in the loader, which would
// take Registry.Add/Reload down with it — and must leave the model's
// weights, and the packed copy inference is using, as they were.
// goodSnapshot is a snapshot that loads into NewDense("a", 2, 2, ...).
func goodSnapshot() snapshot {
	return snapshot{
		Names:  []string{"a.W", "a.b"},
		Shapes: [][2]int{{2, 2}, {1, 2}},
		Values: [][]float64{{1, 2, 3, 4}, {5, 6}},
	}
}

// hostileSnapshots are goodSnapshot broken one way each; LoadParams must
// refuse every one.
var hostileSnapshots = []struct {
	name    string
	corrupt func(s *snapshot)
}{
	{"no shapes", func(s *snapshot) { s.Shapes = nil }},
	{"one shape short", func(s *snapshot) { s.Shapes = s.Shapes[:1] }},
	{"no values", func(s *snapshot) { s.Values = nil }},
	{"one value list short", func(s *snapshot) { s.Values = s.Values[:1] }},
	{"one name short", func(s *snapshot) { s.Names = s.Names[:1] }},
	{"an extra shape", func(s *snapshot) { s.Shapes = append(s.Shapes, [2]int{1, 1}) }},
	{"+Inf weight", func(s *snapshot) { s.Values[0][3] = math.Inf(1) }},
	{"-Inf bias", func(s *snapshot) { s.Values[1][0] = math.Inf(-1) }},
	{"NaN in the last param", func(s *snapshot) { s.Values[1][1] = math.NaN() }},
}

func TestLoadParamsRefusesHostileSnapshots(t *testing.T) {
	for _, c := range hostileSnapshots {
		t.Run(c.name, func(t *testing.T) {
			snap := goodSnapshot()
			c.corrupt(&snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
				t.Fatal(err)
			}
			d := NewDense("a", 2, 2, InitXavier, mat.NewRand(36))
			d.Pack()
			before := [][]float64{slices.Clone(d.Weight.W.Data), slices.Clone(d.Bias.W.Data)}
			packed := d.Weight.packed.Load()
			if err := LoadParams(&buf, d.Params()); err == nil {
				t.Fatal("LoadParams accepted the snapshot")
			}
			if !slices.Equal(d.Weight.W.Data, before[0]) || !slices.Equal(d.Bias.W.Data, before[1]) {
				t.Fatal("a refused snapshot changed the model's weights")
			}
			if d.Weight.packed.Load() != packed {
				t.Fatal("a refused snapshot dropped the packed copy")
			}
		})
	}
	// The unbroken snapshot loads: the cases above fail for their defect.
	var buf bytes.Buffer
	snap := goodSnapshot()
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, NewDense("a", 2, 2, InitXavier, mat.NewRand(36)).Params()); err != nil {
		t.Fatal(err)
	}
}

func TestBatchNormStatParamsAliasLiveState(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	stats := bn.StatParams()
	if len(stats) != 2 {
		t.Fatalf("stat params %d", len(stats))
	}
	// Writing through the pseudo-param must update the layer...
	stats[0].W.Data[0] = 42
	if bn.RunningMean[0] != 42 {
		t.Fatal("stat params must alias RunningMean")
	}
	// ...and training must be visible through a previously obtained view.
	rng := mat.NewRand(60)
	x := mat.New(16, 2)
	mat.FillNormal(x, rng, 5, 1)
	bn.Forward(x, true)
	if stats[0].W.Data[0] == 42 {
		t.Fatal("training must update the aliased running mean")
	}
}

func TestStatParamsRoundTripThroughSaveLoad(t *testing.T) {
	rng := mat.NewRand(61)
	net := NewSequential(
		NewDense("fc", 3, 4, InitXavier, rng),
		NewBatchNorm("bn", 4),
	)
	// Train a little so running stats move off their defaults.
	x := mat.New(32, 3)
	mat.FillNormal(x, rng, 2, 1)
	net.Forward(x, true)

	var buf bytes.Buffer
	all := append(net.Params(), net.StatParams()...)
	if err := SaveParams(&buf, all); err != nil {
		t.Fatal(err)
	}
	rng2 := mat.NewRand(99)
	net2 := NewSequential(
		NewDense("fc", 3, 4, InitXavier, rng2),
		NewBatchNorm("bn", 4),
	)
	all2 := append(net2.Params(), net2.StatParams()...)
	if err := LoadParams(&buf, all2); err != nil {
		t.Fatal(err)
	}
	// Inference outputs must now agree exactly.
	q := mat.New(5, 3)
	mat.FillNormal(q, mat.NewRand(62), 0, 1)
	if !mat.Equal(net.Forward(q, false), net2.Forward(q, false), 0) {
		t.Fatal("restored network diverges at inference")
	}
}

func TestMultiHeadStatParams(t *testing.T) {
	rng := mat.NewRand(63)
	trunk := NewSequential(
		NewDense("fc", 2, 4, InitXavier, rng),
		NewBatchNorm("bn", 4),
	)
	h := &Head{Name: "h", Layer: NewDense("h", 4, 2, InitXavier, rng), Loss: NewSoftmaxCE(), Weight: 1}
	m := NewMultiHead(trunk, h)
	// One BN layer → two stat params (mean, var); plain Dense heads add none.
	if got := len(m.StatParams()); got != 2 {
		t.Fatalf("multi-head stat params %d want 2", got)
	}
}

func TestSequentialStatParamsSkipsStatlessLayers(t *testing.T) {
	rng := mat.NewRand(64)
	s := NewSequential(
		NewDense("a", 2, 3, InitXavier, rng),
		NewTanh(),
		NewBatchNorm("bn1", 3),
		NewBatchNorm("bn2", 3),
	)
	if got := len(s.StatParams()); got != 4 {
		t.Fatalf("stat params %d want 4 (2 per batch norm)", got)
	}
}
