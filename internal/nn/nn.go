// Package nn is a small, dependency-free neural network framework built for
// the NObLe reproduction. It provides exactly the pieces the paper's models
// need — fully connected layers, batch normalization, tanh/relu/sigmoid
// activations, Xavier/He initialization, softmax cross-entropy, multi-label
// binary cross-entropy and mean-squared-error losses, SGD-with-momentum and
// Adam optimizers, a Sequential container, a MultiHead container (shared
// trunk with per-task heads, the paper's multi-label formulation), and a
// deterministic minibatch trainer.
//
// There is no autodiff: every layer implements an explicit Backward. The
// graphs in this repository are small and static, and explicit gradients
// keep the code auditable and allow exact numeric gradient checking (see
// GradCheck in the tests).
//
// Conventions: activations flow through *mat.Dense matrices in batch-major
// layout (rows are samples, columns are features). Forward(x, train) may
// cache whatever it needs for the next Backward; Backward(dout) returns the
// gradient with respect to the layer input and accumulates parameter
// gradients into Param.G. Callers zero gradients between steps with
// ZeroGrads.
package nn

import (
	"fmt"
	"sync/atomic"

	"noble/internal/mat"
)

// Param is one learnable tensor: its value W and accumulated gradient G,
// always shaped identically. Name is used for serialization and debugging.
type Param struct {
	Name string
	W    *mat.Dense
	G    *mat.Dense

	// packed is the panel-layout copy of W that batched inference
	// multiplies by (mat.Packed), or nil; screen is the fp32 copy a
	// class head's 1–4-row passes find their argmax with (mat.Screen), or
	// nil. Both are snapshots, so everything in this package that writes
	// W drops them first or after (dropCopies) — a training Forward, an
	// optimizer Step, LoadParams — and inference only ever loads the
	// pointers; only Pack and Screen, which no inference or training
	// entry point calls, build them.
	packed atomic.Pointer[mat.Packed]
	screen atomic.Pointer[mat.Screen]
}

// dropCopies forgets every copy of W: the next inference reads W itself.
func (p *Param) dropCopies() {
	p.packed.Store(nil)
	p.screen.Store(nil)
}

// Pack builds the packed copy of W that Dense.Forward(x, false) reads
// for batches of mat.PackedMinRows or more rows, unless one is current.
// It costs one more copy of W in memory (nothing on hosts without the
// AVX tiles) and a pass over W to build, which is why it is the owner's
// call and not inference's: serve packs a placed model on its first
// batch large enough to use the panels. Safe to call while other
// goroutines run inference on the same parameter; not while one trains.
func (p *Param) Pack() {
	if p.packed.Load() == nil {
		p.packed.Store(mat.Pack(p.W))
	}
}

// Screen builds the screen of W (mat.Screen) that
// Dense.ScreenedArgMax answers 1–4-row passes from, unless one is
// current. It costs an fp32 copy of W, half W's size, and a pass over
// W; like Pack it is the owner's call, safe while other goroutines run
// inference on the parameter, not while one trains.
func (p *Param) Screen() {
	if p.screen.Load() == nil {
		p.screen.Store(mat.NewScreen(p.W))
	}
}

// packer is implemented by layers and containers whose weights batched
// inference can read packed.
type packer interface{ Pack() }

// NewParam allocates a named r×c parameter with a zeroed gradient.
func NewParam(name string, r, c int) *Param {
	return &Param{Name: name, W: mat.New(r, c), G: mat.New(r, c)}
}

// Layer is the unit of composition: a differentiable transformation with
// optional learnable parameters.
type Layer interface {
	// Forward computes the layer output for the batch x. When train is
	// true the layer may behave stochastically (dropout) or use batch
	// statistics (batch norm) and must cache what Backward needs.
	Forward(x *mat.Dense, train bool) *mat.Dense
	// Backward takes dL/d(output) and returns dL/d(input), accumulating
	// dL/d(param) into the layer's Params. It must be called after a
	// Forward with train=true.
	Backward(dout *mat.Dense) *mat.Dense
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// StatHolder is implemented by layers carrying non-learnable state that
// must survive serialization (batch-norm running statistics). StatParams
// returns pseudo-parameters whose W matrices alias the live state.
type StatHolder interface {
	StatParams() []*Param
}

// ZeroGrads clears the gradient of every parameter in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.G.Zero()
	}
}

// ParamCount returns the total number of scalar learnable values.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	return n
}

// PackedBytes returns the memory held by the packed copies (Param.Pack)
// of params: 0 when none is packed.
func PackedBytes(params []*Param) int {
	n := 0
	for _, p := range params {
		if pk := p.packed.Load(); pk != nil {
			n += pk.Bytes()
		}
	}
	return n
}

// ScreenBytes returns the memory held by the screens (Param.Screen) of
// params: 0 when none is built.
func ScreenBytes(params []*Param) int {
	n := 0
	for _, p := range params {
		if s := p.screen.Load(); s != nil {
			n += s.Bytes()
		}
	}
	return n
}

// OneHotBatch encodes class indices as a len(classes)×k one-hot matrix.
// It panics if any class index is outside [0, k).
func OneHotBatch(classes []int, k int) *mat.Dense {
	out := mat.New(len(classes), k)
	for i, c := range classes {
		if c < 0 || c >= k {
			panic(fmt.Sprintf("nn: OneHotBatch class %d outside [0,%d)", c, k))
		}
		out.Set(i, c, 1)
	}
	return out
}

// Concat concatenates a and b column-wise: the result has a.Cols+b.Cols
// columns. Row counts must match.
func Concat(a, b *mat.Dense) *mat.Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: Concat row mismatch %d vs %d", a.Rows, b.Rows))
	}
	out := mat.New(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		row := out.Row(i)
		copy(row[:a.Cols], a.Row(i))
		copy(row[a.Cols:], b.Row(i))
	}
	return out
}

// SplitCols splits m column-wise at column c, returning copies of the left
// (first c columns) and right (remaining) parts. Used to route gradients
// back through Concat.
func SplitCols(m *mat.Dense, c int) (left, right *mat.Dense) {
	if c < 0 || c > m.Cols {
		panic(fmt.Sprintf("nn: SplitCols at %d of %d", c, m.Cols))
	}
	left = mat.New(m.Rows, c)
	right = mat.New(m.Rows, m.Cols-c)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		copy(left.Row(i), row[:c])
		copy(right.Row(i), row[c:])
	}
	return left, right
}

// SelectRows gathers the given rows of m into a new matrix, in order.
func SelectRows(m *mat.Dense, idx []int) *mat.Dense {
	out := mat.New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
