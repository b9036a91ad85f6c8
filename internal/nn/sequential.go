package nn

import (
	"fmt"
	"math/rand"

	"noble/internal/mat"
)

// Sequential chains layers, feeding each output into the next layer's
// input. It itself satisfies Layer, so sequentials compose.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Add appends a layer.
func (s *Sequential) Add(l Layer) { s.Layers = append(s.Layers, l) }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *mat.Dense, train bool) *mat.Dense {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(dout *mat.Dense) *mat.Dense {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Pack packs the weights of every layer that has a packed form.
func (s *Sequential) Pack() {
	for _, l := range s.Layers {
		if p, ok := l.(packer); ok {
			p.Pack()
		}
	}
}

// Params concatenates the parameters of every layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// StatParams concatenates the non-learnable serializable state of every
// layer that carries any (batch-norm running statistics).
func (s *Sequential) StatParams() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		if sh, ok := l.(StatHolder); ok {
			out = append(out, sh.StatParams()...)
		}
	}
	return out
}

// FLOPs sums the FLOP estimates of layers that report one (Dense,
// BlockDense); other layers contribute a per-element pass counted by the
// energy model separately.
func (s *Sequential) FLOPs() int64 {
	var total int64
	for _, l := range s.Layers {
		if f, ok := l.(interface{ FLOPs() int64 }); ok {
			total += f.FLOPs()
		}
	}
	return total
}

// NewMLP builds the paper's standard trunk: repeated [Dense → BatchNorm →
// activation] blocks with the given hidden sizes (§IV-A uses two hidden
// layers of 128 with tanh, Xavier initialization and batch normalization).
// The activation is tanh when useTanh is true, ReLU otherwise.
func NewMLP(name string, in int, hidden []int, useTanh bool, rng *rand.Rand) *Sequential {
	s := NewSequential()
	prev := in
	for i, h := range hidden {
		layerName := fmt.Sprintf("%s.fc%d", name, i)
		scheme := InitXavier
		if !useTanh {
			scheme = InitHe
		}
		s.Add(NewDense(layerName, prev, h, scheme, rng))
		s.Add(NewBatchNorm(fmt.Sprintf("%s.bn%d", name, i), h))
		if useTanh {
			s.Add(NewTanh())
		} else {
			s.Add(NewReLU())
		}
		prev = h
	}
	return s
}

// Head couples an output projection with its loss and a mixing weight.
// NObLe's Wi-Fi model uses four heads: fine neighborhood class, coarse
// class, building, and floor (§IV-A, Fig. 3).
type Head struct {
	Name   string
	Layer  Layer
	Loss   Loss
	Weight float64

	lastOut *mat.Dense
}

// MultiHead is a shared trunk feeding several heads, the network-level
// expression of the paper's multi-label formulation: the trunk's
// penultimate activation is the learned manifold embedding, and each head
// is a linear probe whose loss shapes that embedding.
type MultiHead struct {
	Trunk *Sequential
	Heads []*Head

	lastEmb *mat.Dense
}

// NewMultiHead builds a multi-head model.
func NewMultiHead(trunk *Sequential, heads ...*Head) *MultiHead {
	return &MultiHead{Trunk: trunk, Heads: heads}
}

// Forward computes the trunk embedding and every head's raw output
// (logits). The embedding is returned alongside the per-head outputs.
func (m *MultiHead) Forward(x *mat.Dense, train bool) (emb *mat.Dense, outs []*mat.Dense) {
	emb = m.Trunk.Forward(x, train)
	if train {
		m.lastEmb = emb
	}
	outs = make([]*mat.Dense, len(m.Heads))
	for i, h := range m.Heads {
		outs[i] = h.Layer.Forward(emb, train)
		if train {
			h.lastOut = outs[i]
		}
	}
	return emb, outs
}

// Step performs a full forward/backward pass for one batch: it computes
// the weighted sum of head losses against the given targets (targets[i]
// pairs with Heads[i]; a nil target skips that head) and accumulates all
// gradients. It returns the total weighted loss.
func (m *MultiHead) Step(x *mat.Dense, targets []*mat.Dense) float64 {
	_, outs := m.Forward(x, true)
	total := 0.0
	dEmb := mat.New(m.lastEmb.Rows, m.lastEmb.Cols)
	for i, h := range m.Heads {
		if targets[i] == nil {
			continue
		}
		total += h.Weight * h.Loss.Forward(outs[i], targets[i])
		dOut := h.Loss.Backward()
		dOut.Scale(h.Weight)
		dEmb.AddInPlace(h.Layer.Backward(dOut))
	}
	m.Trunk.Backward(dEmb)
	return total
}

// Pack packs the trunk's and every head's weights.
func (m *MultiHead) Pack() {
	m.Trunk.Pack()
	for _, h := range m.Heads {
		if p, ok := h.Layer.(packer); ok {
			p.Pack()
		}
	}
}

// Params concatenates trunk and head parameters.
func (m *MultiHead) Params() []*Param {
	out := m.Trunk.Params()
	for _, h := range m.Heads {
		out = append(out, h.Layer.Params()...)
	}
	return out
}

// StatParams concatenates trunk and head serializable state.
func (m *MultiHead) StatParams() []*Param {
	out := m.Trunk.StatParams()
	for _, h := range m.Heads {
		if sh, ok := h.Layer.(StatHolder); ok {
			out = append(out, sh.StatParams()...)
		}
	}
	return out
}

// FLOPs estimates the MAC count of a single inference (trunk plus heads).
func (m *MultiHead) FLOPs() int64 {
	total := m.Trunk.FLOPs()
	for _, h := range m.Heads {
		if f, ok := h.Layer.(interface{ FLOPs() int64 }); ok {
			total += f.FLOPs()
		}
	}
	return total
}
