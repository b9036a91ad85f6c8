package nn

import (
	"fmt"
	"math"

	"noble/internal/mat"
)

// BatchNorm normalizes each feature over the batch dimension [21], with a
// learnable per-feature scale (gamma) and shift (beta). The paper uses batch
// normalization in both the Wi-Fi and IMU models. At inference time the
// layer uses exponentially averaged running statistics collected during
// training.
type BatchNorm struct {
	Features int
	Eps      float64
	Momentum float64 // running-stat update rate, typically 0.1

	Gamma, Beta *Param

	RunningMean []float64
	RunningVar  []float64

	// Backward caches.
	xc     *mat.Dense // centered input
	std    []float64  // per-feature stddev for the batch
	normed *mat.Dense // normalized input
}

// NewBatchNorm creates a batch-norm layer over the given feature count with
// gamma=1, beta=0, running mean 0 and running variance 1.
func NewBatchNorm(name string, features int) *BatchNorm {
	bn := &BatchNorm{
		Features:    features,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       NewParam(name+".gamma", 1, features),
		Beta:        NewParam(name+".beta", 1, features),
		RunningMean: make([]float64, features),
		RunningVar:  make([]float64, features),
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalizes x feature-wise. In training mode it uses batch
// statistics and updates the running averages; in inference mode it uses
// the running statistics.
func (bn *BatchNorm) Forward(x *mat.Dense, train bool) *mat.Dense {
	if x.Cols != bn.Features {
		panic(fmt.Sprintf("nn: BatchNorm over %d features got %d cols", bn.Features, x.Cols))
	}
	if !train {
		out := x.Clone()
		bn.inferInPlace(out)
		return out
	}
	out := mat.New(x.Rows, x.Cols)
	n := float64(x.Rows)
	mean := x.SumRows()
	for j := range mean {
		mean[j] /= n
	}
	bn.xc = mat.New(x.Rows, x.Cols)
	variance := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		row, crow := x.Row(i), bn.xc.Row(i)
		for j := range row {
			d := row[j] - mean[j]
			crow[j] = d
			variance[j] += d * d
		}
	}
	bn.std = make([]float64, x.Cols)
	for j := range variance {
		variance[j] /= n
		bn.std[j] = math.Sqrt(variance[j] + bn.Eps)
	}
	bn.normed = mat.New(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		crow, nrow, orow := bn.xc.Row(i), bn.normed.Row(i), out.Row(i)
		for j := range crow {
			v := crow[j] / bn.std[j]
			nrow[j] = v
			orow[j] = bn.Gamma.W.Data[j]*v + bn.Beta.W.Data[j]
		}
	}
	for j := range mean {
		bn.RunningMean[j] = (1-bn.Momentum)*bn.RunningMean[j] + bn.Momentum*mean[j]
		bn.RunningVar[j] = (1-bn.Momentum)*bn.RunningVar[j] + bn.Momentum*variance[j]
	}
	return out
}

// inferInPlace normalizes x with the running statistics, overwriting it.
func (bn *BatchNorm) inferInPlace(x *mat.Dense) {
	if x.Cols != bn.Features {
		panic(fmt.Sprintf("nn: BatchNorm over %d features got %d cols", bn.Features, x.Cols))
	}
	gamma, beta := bn.Gamma.W.Data, bn.Beta.W.Data
	inv := make([]float64, x.Cols)
	for j := range inv {
		inv[j] = 1 / math.Sqrt(bn.RunningVar[j]+bn.Eps)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			row[j] = gamma[j]*(v-bn.RunningMean[j])*inv[j] + beta[j]
		}
	}
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm) Backward(dout *mat.Dense) *mat.Dense {
	if bn.normed == nil {
		panic("nn: BatchNorm.Backward before Forward(train=true)")
	}
	n := float64(dout.Rows)
	// Parameter gradients.
	for i := 0; i < dout.Rows; i++ {
		drow, nrow := dout.Row(i), bn.normed.Row(i)
		for j := range drow {
			bn.Gamma.G.Data[j] += drow[j] * nrow[j]
			bn.Beta.G.Data[j] += drow[j]
		}
	}
	// Input gradient:
	// dx = (gamma/std) * (dout - mean(dout) - normed * mean(dout*normed))
	sumD := make([]float64, dout.Cols)
	sumDN := make([]float64, dout.Cols)
	for i := 0; i < dout.Rows; i++ {
		drow, nrow := dout.Row(i), bn.normed.Row(i)
		for j := range drow {
			sumD[j] += drow[j]
			sumDN[j] += drow[j] * nrow[j]
		}
	}
	dx := mat.New(dout.Rows, dout.Cols)
	for i := 0; i < dout.Rows; i++ {
		drow, nrow, xrow := dout.Row(i), bn.normed.Row(i), dx.Row(i)
		for j := range drow {
			g := bn.Gamma.W.Data[j]
			xrow[j] = g / bn.std[j] * (drow[j] - sumD[j]/n - nrow[j]*sumDN[j]/n)
		}
	}
	return dx
}

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// StatParams exposes the running statistics as pseudo-parameters that
// share the layer's backing storage, so serialization (SaveParams /
// LoadParams) can persist and restore inference-time state. They are not
// returned by Params and never see an optimizer.
func (bn *BatchNorm) StatParams() []*Param {
	return []*Param{
		{Name: bn.Gamma.Name + ".runmean", W: mat.FromSlice(1, bn.Features, bn.RunningMean)},
		{Name: bn.Gamma.Name + ".runvar", W: mat.FromSlice(1, bn.Features, bn.RunningVar)},
	}
}
