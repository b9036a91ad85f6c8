// Package a exercises readonlyinfer: Forward writes are train-gated
// (either guard style), Predict entry points are read-only.
package a

type Dense struct {
	w []float64
	x []float64
}

// Forward gates its activation cache with the block style.
func (d *Dense) Forward(x []float64, train bool) []float64 {
	if train {
		d.x = x
	}
	out := make([]float64, len(d.w))
	return out
}

type BatchNorm struct {
	std  []float64
	runs int
}

// Forward gates with the early-return style: everything after the
// !train return is training-only.
func (bn *BatchNorm) Forward(x []float64, train bool) []float64 {
	if !train {
		return x
	}
	bn.std = x
	bn.runs++
	return x
}

type Leaky struct{ cache []float64 }

func (l *Leaky) Forward(x []float64, train bool) []float64 {
	l.cache = x // want `receiver write in Forward outside a train guard`
	return x
}

type Model struct {
	hits  int
	cache map[string]int
}

func (m *Model) PredictBatch(x [][]float64) int {
	m.hits++ // want `receiver write in PredictBatch`
	return m.hits
}

func (m *Model) PredictMemo(key string) int {
	m.cache[key] = 1 // want `receiver write in PredictMemo`
	return m.cache[key]
}

func (m *Model) PredictClean(x [][]float64) int {
	local := m.hits
	local++
	return local
}

func (m *Model) PredictSuppressed() int {
	//vet:ignore readonlyinfer -- fixture: counter is atomic in the real type
	m.hits++
	return m.hits
}

// QDense is the quantized inference-layer shape: a single-parameter
// Forward with no train mode. Scratch in locals is fine.
type QDense struct {
	w     []float64
	scale float64
}

func (q *QDense) Forward(x []float64) []float64 {
	acc := make([]float64, len(q.w))
	for i, wv := range q.w {
		if i < len(x) {
			acc[i] = wv * x[i] * q.scale
		}
	}
	return acc
}

// QCached caches its activation on the receiver — the race the
// quantized tier must never reintroduce.
type QCached struct {
	w    []float64
	last []float64
}

func (q *QCached) Forward(x []float64) []float64 {
	q.last = x // want `receiver write in single-parameter Forward`
	return q.last
}

// MSE is the loss shape: two parameters, so the Backward cache is
// legitimate training state and must NOT be flagged.
type MSE struct{ diff []float64 }

func (l *MSE) Forward(pred, target []float64) float64 {
	l.diff = make([]float64, len(pred))
	s := 0.0
	for i := range pred {
		l.diff[i] = pred[i] - target[i]
		s += l.diff[i] * l.diff[i]
	}
	return s
}

// Tanh's in-place inference transform overwrites its argument: allowed.
type Tanh struct{}

func (t *Tanh) inferInPlace(x []float64) {
	for i, v := range x {
		x[i] = v / (1 + v*v)
	}
}

// Norm caches the inverse it computed on the receiver, which every
// concurrent pass over the layer shares.
type Norm struct {
	scale float64
	inv   []float64
}

func (n *Norm) inferInPlace(x []float64) {
	n.inv = make([]float64, len(x)) // want `receiver write in inferInPlace`
	for i := range x {
		x[i] *= n.scale
	}
}
