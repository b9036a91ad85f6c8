package nn

import (
	"math"
	"testing"

	"noble/internal/mat"
)

// randomizeStats gives every batch norm in s non-trivial running
// statistics and affine parameters, so inference exercises all of them.
func randomizeStats(s *Sequential, seed int64) {
	rng := mat.NewRand(seed)
	for _, l := range s.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			for j := range bn.RunningMean {
				bn.RunningMean[j] = rng.NormFloat64()
				bn.RunningVar[j] = 0.1 + rng.Float64()
			}
			mat.FillNormal(bn.Gamma.W, rng, 1, 0.3)
			mat.FillNormal(bn.Beta.W, rng, 0, 0.3)
		}
	}
}

// TestSequentialInferenceMatchesLayerByLayer: the container's inference
// pass, which runs element-wise layers in place on matrices it
// allocated, is bit-equal to each layer's own Forward(x, false) in turn
// and leaves the caller's input untouched — including stacks that start
// with an element-wise or a pass-through layer, where the first matrix
// an in-place layer would see is the caller's.
func TestSequentialInferenceMatchesLayerByLayer(t *testing.T) {
	rng := mat.NewRand(7)
	wifi := NewMLP("wifi", 40, []int{32, 24}, true, rng)
	relu := NewMLP("relu", 40, []int{32, 24}, false, rng)
	imu := NewSequential(NewBlockDense("proj", 6, 5, 4, InitXavier, rng))
	imu.Layers = append(imu.Layers, NewMLP("disp", 24, []int{16, 16}, true, rng).Layers...)
	imu.Add(NewDense("disp.out", 16, 2, InitXavier, rng))
	cases := []struct {
		name string
		net  *Sequential
		in   int
	}{
		{"wifi-trunk", wifi, 40},
		{"relu-trunk", relu, 40},
		{"imu-blockdense-first", imu, 30},
		{"batchnorm-first", NewSequential(NewBatchNorm("bn", 8), NewTanh(), NewReLU()), 8},
		{"tanh-first", NewSequential(NewTanh(), NewBatchNorm("bn", 8)), 8},
		{"relu-first", NewSequential(NewReLU(), NewTanh()), 8},
		{"dropout-first", NewSequential(NewDropout(0.5, rng), NewTanh(), NewBatchNorm("bn", 8)), 8},
		{"nested", NewSequential(NewSequential(NewDropout(0.5, rng)), NewReLU()), 8},
	}
	for ci, c := range cases {
		randomizeStats(c.net, int64(ci))
		for _, rows := range []int{1, 3, 32} {
			x := mat.New(rows, c.in)
			mat.FillNormal(x, rng, 0, 2)
			x.Data[0] = math.Copysign(0, -1)
			before := x.Clone()

			want := x
			for _, l := range c.net.Layers {
				want = l.Forward(want, false)
			}
			sameBitsExact(t, c.name+" input after layer-by-layer", x, before)
			got := c.net.Forward(x, false)
			sameBitsExact(t, c.name+" input after Sequential.Forward", x, before)
			sameBitsExact(t, c.name+" output", got, want)
		}
	}
}

// sameBitsExact is sameBits on the bit patterns, so a −0 where +0 was
// expected fails too.
func sameBitsExact(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferenceArithmeticUnchanged pins the element-wise inference
// formulas themselves, which the in-place methods must keep operation
// for operation: batch norm is γ·(x−μ)·(1/√(σ²+ε)) + β, evaluated left
// to right; tanh is math.Tanh; ReLU zeroes only negatives.
func TestInferenceArithmeticUnchanged(t *testing.T) {
	rng := mat.NewRand(11)
	bn := NewBatchNorm("bn", 16)
	randomizeStats(NewSequential(bn), 3)
	x := mat.New(5, 16)
	mat.FillNormal(x, rng, 0, 3)
	x.Data[1] = math.Copysign(0, -1)

	want := mat.New(x.Rows, x.Cols)
	for i := range x.Data {
		j := i % x.Cols
		inv := 1 / math.Sqrt(bn.RunningVar[j]+bn.Eps)
		want.Data[i] = bn.Gamma.W.Data[j]*(x.Data[i]-bn.RunningMean[j])*inv + bn.Beta.W.Data[j]
	}
	sameBitsExact(t, "batch norm", bn.Forward(x, false), want)

	for i, v := range x.Data {
		want.Data[i] = math.Tanh(v)
	}
	sameBitsExact(t, "tanh", NewTanh().Forward(x, false), want)

	for i, v := range x.Data {
		if want.Data[i] = v; v < 0 {
			want.Data[i] = 0
		}
	}
	sameBitsExact(t, "relu", NewReLU().Forward(x, false), want)
}
