package nn

import "math"

// Optimizer updates parameter values from their accumulated gradients.
// Implementations keep any per-parameter state keyed by *Param identity, so
// one optimizer instance must be used with a stable parameter set.
type Optimizer interface {
	// Step applies one update using the gradients currently in params and
	// leaves the gradients untouched (callers zero them via ZeroGrads).
	Step(params []*Param)
}

// LRScheduler is implemented by optimizers whose learning rate can be
// rescaled between epochs (used by the trainer's decay schedule).
type LRScheduler interface {
	ScaleLR(factor float64)
}

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float64
}

// NewSGD returns an SGD optimizer with the given learning rate and
// momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float64)}
}

// Step applies v ← μv - lr·(g + wd·w); w ← w + v to every parameter.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = make([]float64, len(p.W.Data))
			o.velocity[p] = v
		}
		p.dropCopies()
		for i := range p.W.Data {
			g := p.G.Data[i] + o.WeightDecay*p.W.Data[i]
			v[i] = o.Momentum*v[i] - o.LR*g
			p.W.Data[i] += v[i]
		}
	}
}

// ScaleLR multiplies the learning rate by factor.
func (o *SGD) ScaleLR(factor float64) { o.LR *= factor }

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction and
// optional decoupled weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step applies one Adam update to every parameter.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.W.Data))
			o.m[p] = m
			o.v[p] = make([]float64, len(p.W.Data))
		}
		v := o.v[p]
		p.dropCopies()
		for i := range p.W.Data {
			g := p.G.Data[i]
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.W.Data[i]
			}
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.W.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// ScaleLR multiplies the learning rate by factor.
func (o *Adam) ScaleLR(factor float64) { o.LR *= factor }

// ClipGrads rescales all gradients so their global L2 norm does not exceed
// maxNorm; a no-op when already within bounds or maxNorm <= 0.
func ClipGrads(params []*Param, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var total float64
	for _, p := range params {
		for _, g := range p.G.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.G.Scale(scale)
	}
}
