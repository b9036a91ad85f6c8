package nn

import (
	"fmt"
	"math"
	"math/rand"

	"noble/internal/mat"
)

// InitScheme selects the weight initialization used by NewDense.
type InitScheme int

// Initialization schemes. The paper trains with Xavier (Glorot) uniform
// initialization [20]; He initialization is provided for the ReLU ablations.
const (
	InitXavier InitScheme = iota
	InitHe
	InitZero
)

// Dense is a fully connected layer computing y = x·W + b for a batch x.
// W is in×out, b is 1×out.
type Dense struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	x *mat.Dense // cached input for Backward
}

// NewDense creates an in→out fully connected layer with the given
// initialization drawn from rng. The name prefixes the parameter names.
func NewDense(name string, in, out int, scheme InitScheme, rng *rand.Rand) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".W", in, out),
		Bias:   NewParam(name+".b", 1, out),
	}
	switch scheme {
	case InitXavier:
		// Glorot uniform: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
		a := math.Sqrt(6 / float64(in+out))
		mat.FillUniform(d.Weight.W, rng, -a, a)
	case InitHe:
		mat.FillNormal(d.Weight.W, rng, 0, math.Sqrt(2/float64(in)))
	case InitZero:
		// weights stay zero
	default:
		panic(fmt.Sprintf("nn: unknown init scheme %d", scheme))
	}
	return d
}

// Forward computes x·W + b. Inference multiplies by the packed copy of W
// when the owner has built one (Pack); a training pass drops it, since
// the step that follows moves W.
func (d *Dense) Forward(x *mat.Dense, train bool) *mat.Dense {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense %d→%d got input with %d cols", d.In, d.Out, x.Cols))
	}
	if train {
		d.x = x
		d.Weight.dropCopies()
	}
	out := mat.New(x.Rows, d.Out)
	if p := d.Weight.packed.Load(); p != nil {
		p.MulInto(out, x)
	} else {
		mat.MatMulInto(out, x, d.Weight.W)
	}
	out.AddRowVec(d.Bias.W.Data)
	return out
}

// Pack builds the packed copy of the weight matrix (see Param.Pack).
func (d *Dense) Pack() { d.Weight.Pack() }

// Screen builds the screen of the weight matrix (see Param.Screen).
func (d *Dense) Screen() { d.Weight.Screen() }

// ScreenedArgMax returns the argmax of each row of Forward(x, false) —
// mat.ArgMax's answer on those logits, bit for bit — without computing
// the logits, or nil. It answers passes under mat.PackedMinRows rows
// from the screen the owner built (Screen); with no screen, a larger
// pass, or a row the screen hands back (mat.Screen.ArgMax), it returns
// nil and the caller runs Forward.
func (d *Dense) ScreenedArgMax(x *mat.Dense) []int {
	s := d.Weight.screen.Load()
	if s == nil || x.Rows >= mat.PackedMinRows {
		return nil
	}
	classes := make([]int, x.Rows)
	for i := range classes {
		c, ok := s.ArgMax(x.Row(i), d.Bias.W.Data)
		if !ok {
			return nil
		}
		classes[i] = c
	}
	return classes
}

// Backward accumulates dW = xᵀ·dout and db = Σ dout, returning dx = dout·Wᵀ.
func (d *Dense) Backward(dout *mat.Dense) *mat.Dense {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	d.Weight.G.AddInPlace(mat.MatMulATB(d.x, dout))
	bias := dout.SumRows()
	for j, v := range bias {
		d.Bias.G.Data[j] += v
	}
	return mat.MatMulABT(dout, d.Weight.W)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// FLOPs returns the approximate multiply-accumulate count for a single
// forward pass with batch size 1; used by the energy model.
func (d *Dense) FLOPs() int64 { return int64(2*d.In*d.Out + d.Out) }

// BlockDense applies one shared Dense transform to each of Blocks
// consecutive column-groups of the input. The input is batch×(Blocks·In);
// the output is batch×(Blocks·Out). It implements the paper's IMU
// "projection module", in which every IMU segment g_i is multiplied by the
// same trainable projection weight before concatenation (Fig. 5a).
type BlockDense struct {
	Blocks int
	Inner  *Dense
}

// NewBlockDense creates a shared projection applied independently to each
// of blocks segments of width in, producing out features per segment.
func NewBlockDense(name string, blocks, in, out int, scheme InitScheme, rng *rand.Rand) *BlockDense {
	return &BlockDense{Blocks: blocks, Inner: NewDense(name, in, out, scheme, rng)}
}

// Forward reshapes (batch, Blocks·In) to (batch·Blocks, In), applies the
// shared dense layer, and reshapes back. With train=false it writes no
// layer state — like every other layer's inference pass — so concurrent
// inference on a shared model is race-free (the serving layer relies on
// this when micro-batching is disabled).
func (b *BlockDense) Forward(x *mat.Dense, train bool) *mat.Dense {
	if x.Cols != b.Blocks*b.Inner.In {
		panic(fmt.Sprintf("nn: BlockDense expected %d cols, got %d", b.Blocks*b.Inner.In, x.Cols))
	}
	flat := x.Reshape(x.Rows*b.Blocks, b.Inner.In)
	out := b.Inner.Forward(flat, train)
	return out.Reshape(x.Rows, b.Blocks*b.Inner.Out)
}

// Backward routes the gradient through the shared dense layer. The batch
// size is recovered from dout, which matches the last Forward by the
// Layer contract.
func (b *BlockDense) Backward(dout *mat.Dense) *mat.Dense {
	batch := dout.Rows
	flat := dout.Reshape(batch*b.Blocks, b.Inner.Out)
	dx := b.Inner.Backward(flat)
	return dx.Reshape(batch, b.Blocks*b.Inner.In)
}

// Pack builds the packed copy of the shared projection.
func (b *BlockDense) Pack() { b.Inner.Pack() }

// Params returns the shared dense parameters.
func (b *BlockDense) Params() []*Param { return b.Inner.Params() }

// FLOPs returns the MAC count for one forward pass at batch size 1.
func (b *BlockDense) FLOPs() int64 { return int64(b.Blocks) * b.Inner.FLOPs() }
