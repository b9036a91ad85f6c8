package mat

import (
	"math"
	"testing"
)

// referenceArgMax is the class the fp64 path answers for the row a:
// ArgMax(matMulReference(a, w) + bias).
func referenceArgMax(a []float64, w *Dense, bias []float64) int {
	logits := matMulReference(FromSlice(1, len(a), a), w)
	logits.AddRowVec(bias)
	return ArgMax(logits.Row(0))
}

// checkScreen fails if the screen answers a differently from the
// reference, and reports whether it answered at all.
func checkScreen(t *testing.T, what string, s *Screen, a []float64, w *Dense, bias []float64) bool {
	t.Helper()
	got, ok := s.ArgMax(a, bias)
	if want := referenceArgMax(a, w, bias); ok && got != want {
		t.Fatalf("%s: screen says class %d, the fp64 reference %d", what, got, want)
	}
	return ok
}

// requireAnswers fails unless the screen answered, on hosts where one
// can be built.
func requireAnswers(t *testing.T, what string, ok bool) {
	t.Helper()
	if useAVXGemm && !ok {
		t.Fatalf("%s: the screen did not answer", what)
	}
}

// tanhRow is a dense row of trunk-like activations in (−1, 1).
func tanhRow(rng interface{ NormFloat64() float64 }, k int) []float64 {
	a := make([]float64, k)
	for i := range a {
		a[i] = math.Tanh(rng.NormFloat64())
	}
	return a
}

// testScreenArgMaxMatchesReference holds the screen to the fp64
// reference on random rows at the perf shape, at every loop boundary of
// the fp32 sweep, and on the cases built to break a bound: exact ties,
// logits one ulp apart, zero rows, weights whose products underflow
// fp32, weights fp32 cannot hold, and non-finite inputs.
func testScreenArgMaxMatchesReference(t *testing.T) {
	rng := NewRand(41)

	t.Run("perf shape", func(t *testing.T) {
		// The fine head bench serves: 256 activations, 1002 classes,
		// Xavier-range weights.
		w, bias := New(256, 1002), make([]float64, 1002)
		lim := math.Sqrt(6.0 / (256 + 1002))
		FillUniform(w, rng, -lim, lim)
		for j := range bias {
			bias[j] = 0.1 * rng.NormFloat64()
		}
		s := NewScreen(w)
		for r := 0; r < 300; r++ {
			requireAnswers(t, "random row", checkScreen(t, "random row", s, tanhRow(rng, 256), w, bias))
		}
	})

	t.Run("every sweep boundary", func(t *testing.T) {
		// k around the groups of four, n around the 32-, 8- and
		// one-column steps; rows dense, sparse and with ±0.
		for _, k := range []int{1, 2, 3, 4, 5, 7, 9, 33} {
			for _, n := range []int{1, 2, 7, 8, 9, 31, 32, 33, 41, 64, 70} {
				w, bias := New(k, n), make([]float64, n)
				FillNormal(w, rng, 0, 1)
				for j := range bias {
					bias[j] = 0.1 * rng.NormFloat64()
				}
				s := NewScreen(w)
				for r := 0; r < 6; r++ {
					a := tanhRow(rng, k)
					for i := range a {
						switch (i + r) % 4 {
						case 1:
							a[i] = 0
						case 2:
							if r%2 == 0 {
								a[i] = math.Copysign(0, -1)
							}
						}
					}
					requireAnswers(t, "boundary row", checkScreen(t, "boundary row", s, a, w, bias))
				}
			}
		}
	})

	t.Run("duplicated columns", func(t *testing.T) {
		// Columns 3, 5 and 9 are one column: an exact three-way tie at
		// the top, which the first index wins.
		w, bias := New(64, 12), make([]float64, 12)
		FillNormal(w, rng, 0, 1)
		a := tanhRow(rng, 64)
		for k := 0; k < 64; k++ {
			v := math.Abs(w.At(k, 3)) * math.Copysign(1, a[k])
			w.Set(k, 3, v)
			w.Set(k, 5, v)
			w.Set(k, 9, v)
		}
		s := NewScreen(w)
		requireAnswers(t, "tie", checkScreen(t, "tie", s, a, w, bias))
		if got, ok := s.ArgMax(a, bias); ok && got != 3 {
			t.Fatalf("three-way tie went to %d, want the first, 3", got)
		}
	})

	t.Run("columns one ulp apart", func(t *testing.T) {
		// Column j+1 is column j with one weight moved by one ulp, in
		// either direction, so the two logits differ in the last bits
		// (or not at all) while their fp32 scores are equal.
		for trial := 0; trial < 50; trial++ {
			w, bias := New(48, 8), make([]float64, 8)
			FillNormal(w, rng, 0, 0.01)
			a := tanhRow(rng, 48)
			for k := 0; k < 48; k++ {
				v := math.Abs(w.At(k, 0))*math.Copysign(1, a[k]) + 1
				w.Set(k, 0, v)
				dir := math.Inf(1 - 2*(trial%2))
				if k == trial%48 {
					w.Set(k, 1, math.Nextafter(v, dir))
				} else {
					w.Set(k, 1, v)
				}
			}
			requireAnswers(t, "one ulp", checkScreen(t, "one ulp", NewScreen(w), a, w, bias))
		}
		// The same with the bias: logits b and nextafter(b).
		w, bias := New(16, 4), []float64{0.5, math.Nextafter(0.5, 1), 0.5, math.Nextafter(0.5, 0)}
		FillNormal(w, rng, 0, 1)
		for k := 0; k < 16; k++ {
			for j := 1; j < 4; j++ {
				w.Set(k, j, w.At(k, 0))
			}
		}
		requireAnswers(t, "one-ulp bias", checkScreen(t, "one-ulp bias", NewScreen(w), tanhRow(rng, 16), w, bias))
	})

	t.Run("fp32 order inverted", func(t *testing.T) {
		// Rounding W to fp32 moves column 0's score up by ~2⁻²⁴ and
		// leaves column 1's alone, so the scores rank 0 above 1 while the
		// fp64 logits rank 1 above 0 by 2⁻⁴⁰: only the error bound keeps
		// column 1 in the running.
		w := FromSlice(1, 2, []float64{1 + 0x1p-24 + 0x1p-40, 1})
		bias := []float64{0, 0x1p-24 + 0x1p-39}
		if want := referenceArgMax([]float64{1}, w, bias); want != 1 {
			t.Fatalf("the case is wrong: the reference answers %d", want)
		}
		requireAnswers(t, "inverted", checkScreen(t, "inverted", NewScreen(w), []float64{1}, w, bias))
	})

	t.Run("zero rows", func(t *testing.T) {
		// All-zero and all-(−0) rows: every score is the bias alone.
		w, bias := New(32, 40), make([]float64, 40)
		FillNormal(w, rng, 0, 1)
		for j := range bias {
			bias[j] = float64(j%7) * 0.25 // ties among the biases too
		}
		s := NewScreen(w)
		for _, z := range []float64{0, math.Copysign(0, -1)} {
			a := make([]float64, 32)
			for i := range a {
				a[i] = z
			}
			requireAnswers(t, "zero row", checkScreen(t, "zero row", s, a, w, bias))
		}
	})

	t.Run("fp32-subnormal weights", func(t *testing.T) {
		// Weights and activations whose products fall below fp32's
		// normal range (and some below its subnormals): the fp32 scores
		// are mostly underflow, and the absolute term of the bound has
		// to carry the answer to the fp64 recompute.
		w, bias := New(24, 16), make([]float64, 16)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * math.Ldexp(1, -130-int(rng.Int63n(30)))
		}
		s := NewScreen(w)
		if useAVXGemm && s.Bytes() == 0 {
			t.Fatal("no screen for weights inside fp32's range")
		}
		for r := 0; r < 20; r++ {
			a := tanhRow(rng, 24)
			if r%2 == 1 {
				for i := range a {
					a[i] *= 0x1p-20
				}
			}
			checkScreen(t, "subnormal", s, a, w, bias)
		}
	})

	t.Run("weights beyond fp32", func(t *testing.T) {
		w := New(8, 8)
		FillNormal(w, rng, 0, 1)
		w.Set(5, 2, -2*math.MaxFloat32)
		s := NewScreen(w)
		if s.Bytes() != 0 {
			t.Fatalf("built a %d-byte screen over a weight fp32 cannot hold", s.Bytes())
		}
		if _, ok := s.ArgMax(tanhRow(rng, 8), make([]float64, 8)); ok {
			t.Fatal("a screen that was never built answered")
		}
	})

	t.Run("non-finite activations", func(t *testing.T) {
		w, bias := New(8, 8), make([]float64, 8)
		FillNormal(w, rng, 0, 1)
		s := NewScreen(w)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e39} {
			a := tanhRow(rng, 8)
			a[3] = bad
			if _, ok := s.ArgMax(a, bias); ok {
				t.Fatalf("answered a row holding %v", bad)
			}
		}
		bias[6] = math.Inf(1)
		if _, ok := s.ArgMax(tanhRow(rng, 8), bias); ok {
			t.Fatal("answered with an infinite bias")
		}
	})
}

func TestScreenArgMaxMatchesReference(t *testing.T) { testScreenArgMaxMatchesReference(t) }

// FuzzScreenArgMax drives one row through the screen from raw bytes:
// fuzzOperands' coarse values make exact ties and cancellations common,
// and dup copies one column over another. Whenever the screen answers,
// its answer must be the fp64 reference's.
func FuzzScreenArgMax(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(9), uint8(16), uint8(0))
	f.Add([]byte{0x80, 0x7f, 0x01, 0xfe, 0x10}, uint8(17), uint8(6), uint8(3))
	f.Add([]byte{0xff, 0x00, 0x3c, 0x00, 0xc3}, uint8(7), uint8(34), uint8(0x21))
	f.Add(make([]byte, 64), uint8(5), uint8(9), uint8(0))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(47), uint8(40), uint8(0x52))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, nRaw, dup uint8) {
		k, n := 1+int(kRaw)%48, 1+int(nRaw)%40
		a, w := fuzzOperands(raw, 1, k, n)
		if from, to := int(dup&0x0f)%n, int(dup>>4)%n; from != to {
			for r := 0; r < k; r++ {
				w.Set(r, to, w.At(r, from))
			}
		}
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = w.At(j%k, (j*7)%n)
		}
		checkScreen(t, "fuzzed row", NewScreen(w), a.Row(0), w, bias)
	})
}
