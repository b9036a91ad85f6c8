package mat

import (
	"fmt"
	"math"
	"testing"
)

// matMulReference is the definition of a correct fp64 product (DESIGN
// §2): the plain scalar triple loop, per element the un-fused products
// added in ascending k. No zero skip, no blocking, no assembly — every
// kernel in this package is tested against it and none of them is it.
func matMulReference(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		drow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return out
}

// requireSameBits fails unless got == want element for element; k is the
// inner dimension, for the message.
func requireSameBits(t *testing.T, got, want *Dense, k int) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%d×%d by %d×%d: element (%d,%d) = %v, the reference loop gives %v",
				want.Rows, k, k, want.Cols, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// fuzzOperands fills a rows×k and a k×n matrix from raw bytes, cycling.
// Values are 4-bit signed mantissas times 2^-8..2^7 (zeros included, for
// the lone-row zero skip): sums of mixed magnitudes round differently
// under any accumulation order other than ascending k, and nothing
// overflows.
func fuzzOperands(raw []byte, rows, k, n int) (a, b *Dense) {
	idx := 0
	next := func() float64 {
		if len(raw) == 0 {
			return 0
		}
		v := raw[idx%len(raw)]
		idx++
		// High nibble: signed mantissa; low nibble: exponent −8..7.
		return math.Ldexp(float64(int8(v&0xf0))/16, int(v&0x0f)-8)
	}
	a, b = New(rows, k), New(k, n)
	for i := range a.Data {
		a.Data[i] = next()
	}
	for i := range b.Data {
		b.Data[i] = next()
	}
	return a, b
}

// checkRowsMatchReference multiplies the 1–4-row a by b through
// MatMulInto — the sweep kernels, or without AVX the pure-Go ones — and
// requires the reference loop's result bit for bit. dst starts dirty.
func checkRowsMatchReference(t *testing.T, a, b *Dense) {
	t.Helper()
	got := New(a.Rows, b.Cols)
	got.Fill(math.NaN())
	MatMulInto(got, a, b)
	requireSameBits(t, got, matMulReference(a, b), a.Cols)
}

// testRowSweepMatchesReference covers every loop boundary of the sweep
// kernels: k around the groups of four, n around the 16-, 8- and
// 4-column steps and the scalar tail, the model's own widths, and input
// rows that are dense, half zero, a third zero (the zeros of one row not
// under the next row's) and all zero.
func testRowSweepMatchesReference(t *testing.T) {
	rng := NewRand(19)
	for rows := 1; rows <= 4; rows++ {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 160, 256} {
			for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 256, 1002} {
				for _, zeroEvery := range []int{0, 2, 3, 1} {
					a, b := New(rows, k), New(k, n)
					FillNormal(a, rng, 0, 1)
					FillNormal(b, rng, 0, 1)
					for r := 0; zeroEvery > 0 && r < rows; r++ {
						for c, row := 0, a.Row(r); c < k; c++ {
							if (c+r)%zeroEvery == 0 {
								row[c] = 0
							}
						}
					}
					checkRowsMatchReference(t, a, b)
				}
			}
		}
	}
}

func TestRowSweepMatchesReferenceBitForBit(t *testing.T) { testRowSweepMatchesReference(t) }

// FuzzRowSweepMatMul drives 1–4-row products from raw bytes (fuzzOperands)
// through MatMulInto against the plain triple loop.
func FuzzRowSweepMatMul(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(9), uint8(16))
	f.Add([]byte{0x80, 0x7f, 0x01, 0xfe, 0x10}, uint8(1), uint8(17), uint8(6))
	f.Add([]byte{0xff, 0x00, 0x3c, 0x00, 0xc3}, uint8(2), uint8(7), uint8(34))
	f.Add(make([]byte, 64), uint8(3), uint8(5), uint8(9))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(3), uint8(47), uint8(21))
	f.Fuzz(func(t *testing.T, raw []byte, rowsRaw, kRaw, nRaw uint8) {
		rows, k, n := 1+int(rowsRaw)%4, int(kRaw)%48, 1+int(nRaw)%40
		a, b := fuzzOperands(raw, rows, k, n)
		checkRowsMatchReference(t, a, b)
	})
}

// benchmarkGemm times one dst = a·w at the given shape with the
// multiply kernel(w) builds (packing, if it packs, is not timed), and
// reports gflop/s beside ns/op. With streamed set, successive calls
// rotate through enough copies of w (4 MB worth, twice this host's L2)
// that none finds its weights where the last call left them — how a
// layer meets its weights inside a forward pass that touches 3 MB of
// them, and what a hot loop over one matrix does not show.
func benchmarkGemm(b *testing.B, rows, k, n int, streamed bool, kernel func(w *Dense) func(dst, a *Dense)) {
	rng := NewRand(5)
	w, a, dst := New(k, n), New(rows, k), New(rows, n)
	FillNormal(w, rng, 0, 1)
	FillNormal(a, rng, 0, 1)
	muls := []func(dst, a *Dense){kernel(w)}
	for streamed && len(muls)*8*k*n < 4<<20 {
		muls = append(muls, kernel(w.Clone()))
	}
	b.SetBytes(int64(8 * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		muls[i%len(muls)](dst, a)
	}
	b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

// gemmKernel builds, for one weight matrix, the multiply a benchmark
// times.
type gemmKernel struct {
	name string
	mul  func(w *Dense) func(dst, a *Dense)
}

// rowMajor is MatMulInto over w as it is stored.
func rowMajor(w *Dense) func(dst, a *Dense) {
	return func(dst, a *Dense) { MatMulInto(dst, a, w) }
}

// scalarRow is the pure-Go lone-row kernel, the sweep's neighbour below.
func scalarRow(w *Dense) func(dst, a *Dense) {
	return func(dst, a *Dense) { dst.Zero(); matMulRow(dst, a, w, 0) }
}

// paddedTile8 is the 8×4 tile with the last row repeated into its spare
// lanes — what five to seven rows take, and the sweep's neighbour above.
func paddedTile8(w *Dense) func(dst, a *Dense) {
	return func(dst, a *Dense) {
		dst.Zero()
		idx := [8]int{}
		for l := range idx {
			idx[l] = min(l, a.Rows-1)
		}
		matMulBlock8(dst, a, w, idx)
	}
}

// benchmarkGemmRows runs a pass of this many rows over the perf-shape
// WiFi model's three layer shapes and the IMU displacement net's first
// layer, hot and streamed: as MatMulInto dispatches it (the row sweep,
// where there is AVX) and through the kernels it could have gone to
// instead, so the choice in matMulRows can be read against the ones it
// did not make.
func benchmarkGemmRows(b *testing.B, rows int) {
	kernels := []gemmKernel{{"dispatch", rowMajor}, {"tile8", paddedTile8}}
	if rows == 1 {
		kernels = append(kernels, gemmKernel{"scalar", scalarRow})
	}
	for _, sh := range [][2]int{{160, 128}, {160, 256}, {256, 256}, {256, 1002}} {
		for _, kernel := range kernels {
			for _, streamed := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s", sh[0], sh[1], kernel.name)
				if streamed {
					name += "-streamed"
				}
				b.Run(name, func(b *testing.B) {
					benchmarkGemm(b, rows, sh[0], sh[1], streamed, kernel.mul)
				})
			}
		}
	}
}

func BenchmarkGemmB1(b *testing.B) { benchmarkGemmRows(b, 1) }
func BenchmarkGemmB2(b *testing.B) { benchmarkGemmRows(b, 2) }
func BenchmarkGemmB3(b *testing.B) { benchmarkGemmRows(b, 3) }
func BenchmarkGemmB4(b *testing.B) { benchmarkGemmRows(b, 4) }
