package nn

import (
	"math"
	"math/rand"

	"noble/internal/mat"
)

// Tanh is the hyperbolic tangent activation used throughout the paper's
// Wi-Fi model ("We used hyperbolic tangent activation functions", §IV-A).
type Tanh struct {
	out *mat.Dense
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *mat.Dense, train bool) *mat.Dense {
	out := x.Clone()
	t.inferInPlace(out)
	if train {
		t.out = out
	}
	return out
}

func (*Tanh) inferInPlace(x *mat.Dense) { x.Apply(math.Tanh) }

// Backward multiplies by 1 - tanh²(x) element-wise.
func (t *Tanh) Backward(dout *mat.Dense) *mat.Dense {
	if t.out == nil {
		panic("nn: Tanh.Backward before Forward(train=true)")
	}
	dx := dout.Clone()
	for i, y := range t.out.Data {
		dx.Data[i] *= 1 - y*y
	}
	return dx
}

// Params returns nil; tanh has no learnable parameters.
func (t *Tanh) Params() []*Param { return nil }

// ReLU is the rectified linear activation, provided for ablations.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *mat.Dense, train bool) *mat.Dense {
	out := x.Clone()
	if !train {
		r.inferInPlace(out)
		return out
	}
	r.mask = make([]bool, len(x.Data))
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		} else {
			r.mask[i] = true
		}
	}
	return out
}

func (*ReLU) inferInPlace(x *mat.Dense) {
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(dout *mat.Dense) *mat.Dense {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	dx := dout.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil; ReLU has no learnable parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation, used in the multi-label output
// interpretation of §III-C.
type Sigmoid struct {
	out *mat.Dense
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies 1/(1+e^-x) element-wise.
func (s *Sigmoid) Forward(x *mat.Dense, train bool) *mat.Dense {
	out := x.Map(sigmoid)
	if train {
		s.out = out
	}
	return out
}

// Backward multiplies by σ(x)·(1-σ(x)).
func (s *Sigmoid) Backward(dout *mat.Dense) *mat.Dense {
	if s.out == nil {
		panic("nn: Sigmoid.Backward before Forward(train=true)")
	}
	dx := dout.Clone()
	for i, y := range s.out.Data {
		dx.Data[i] *= y * (1 - y)
	}
	return dx
}

// Params returns nil; sigmoid has no learnable parameters.
func (s *Sigmoid) Params() []*Param { return nil }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Dropout randomly zeroes activations during training with probability P
// and rescales the survivors by 1/(1-P) (inverted dropout), acting as the
// identity at inference time. Included as a regularization extension.
type Dropout struct {
	P   float64
	rng *rand.Rand

	keep []float64
}

// NewDropout creates a dropout layer with drop probability p drawing from
// rng.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward drops units at random during training.
func (d *Dropout) Forward(x *mat.Dense, train bool) *mat.Dense {
	if !train || d.P <= 0 {
		d.keep = nil
		return x
	}
	out := x.Clone()
	d.keep = make([]float64, len(x.Data))
	scale := 1 / (1 - d.P)
	for i := range out.Data {
		if d.rng.Float64() < d.P {
			out.Data[i] = 0
			d.keep[i] = 0
		} else {
			out.Data[i] *= scale
			d.keep[i] = scale
		}
	}
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(dout *mat.Dense) *mat.Dense {
	if d.keep == nil {
		return dout
	}
	dx := dout.Clone()
	for i := range dx.Data {
		dx.Data[i] *= d.keep[i]
	}
	return dx
}

// Params returns nil; dropout has no learnable parameters.
func (d *Dropout) Params() []*Param { return nil }
