package mat

import (
	"fmt"
	"math"
	"testing"
)

// rowReference is the lone-row kernel applied to every row: the
// definition DESIGN §2 holds every other fp64 path to.
func rowReference(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		matMulRow(out, a, b, i)
	}
	return out
}

// checkPackedMatchesRows multiplies a by b through Pack/MulInto and
// requires every element to equal matMulRow's, bit for bit. dst starts
// dirty: MulInto overwrites.
func checkPackedMatchesRows(t *testing.T, a, b *Dense) {
	t.Helper()
	want := rowReference(a, b)
	got := New(a.Rows, b.Cols)
	got.Fill(math.NaN())
	Pack(b).MulInto(got, a)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%d×%d by %d×%d: element (%d,%d) = %v, matMulRow gives %v",
				a.Rows, a.Cols, b.Rows, b.Cols, i/max(b.Cols, 1), i%max(b.Cols, 1), got.Data[i], want.Data[i])
		}
	}
}

// packedShapes runs f over rows 1–40 × the inner and output widths the
// issue names: k = 0 and tiny k, the trunk widths, n below one panel,
// n % 4 != 0, and the 1002-class head. Rows that are not a multiple of
// eight put duplicated lanes in the last block.
func packedShapes(f func(rows, k, n int)) {
	for _, k := range []int{0, 1, 3, 160, 256} {
		for _, n := range []int{1, 3, 4, 5, 8, 1002} {
			for rows := 1; rows <= 40; rows++ {
				if k*n > 4096 && rows > 12 && rows%8 > 1 && rows != 31 {
					continue // wide shapes: block boundaries and their neighbours only
				}
				f(rows, k, n)
			}
		}
	}
}

func testPackedMatchesRows(t *testing.T) {
	rng := NewRand(18)
	packedShapes(func(rows, k, n int) {
		a, b := New(rows, k), New(k, n)
		FillNormal(a, rng, 0, 1)
		FillNormal(b, rng, 0, 1)
		for i := range a.Data {
			if i%3 == 0 {
				a.Data[i] = 0 // fingerprints are sparse; matMulRow skips zeros
			}
		}
		checkPackedMatchesRows(t, a, b)
	})
}

func TestPackedMatchesRowKernelBitForBit(t *testing.T) { testPackedMatchesRows(t) }

func TestPackedShapePanics(t *testing.T) {
	p := Pack(New(8, 8))
	for _, c := range []struct{ dst, a *Dense }{
		{New(8, 8), New(8, 7)},
		{New(8, 7), New(8, 8)},
		{New(7, 8), New(8, 8)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MulInto(%d×%d, %d×%d) on 8×8 did not panic", c.dst.Rows, c.dst.Cols, c.a.Rows, c.a.Cols)
				}
			}()
			p.MulInto(c.dst, c.a)
		}()
	}
}

func TestPackIsASnapshotOfFullPanels(t *testing.T) {
	b := New(3, 6)
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	p := Pack(b)
	if !useAVXGemm {
		if p.Bytes() != 0 {
			t.Fatalf("packed %d bytes with no kernel to read them", p.Bytes())
		}
		return
	}
	// One full panel (columns 0..3), k-contiguous; columns 4, 5 stay
	// in the source.
	want := []float64{0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15}
	if fmt.Sprint(p.panels) != fmt.Sprint(want) {
		t.Fatalf("panels = %v, want %v", p.panels, want)
	}
}

// FuzzPackedMatMul drives shapes and values from raw bytes through
// Pack/MulInto against the row kernel. Values are 4-bit signed mantissas
// times 2^-8..2^7 (zeros included, for matMulRow's skip): sums of mixed
// magnitudes round differently under any accumulation order other than
// ascending k, and nothing overflows.
func FuzzPackedMatMul(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(5), uint8(3), uint8(4))
	f.Add([]byte{0x80, 0x7f, 0x01, 0xfe, 0x10}, uint8(9), uint8(17), uint8(6))
	f.Add([]byte{0xff, 0x00, 0x3c, 0xc3}, uint8(33), uint8(1), uint8(9))
	f.Add(make([]byte, 64), uint8(7), uint8(0), uint8(5))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(40), uint8(31), uint8(13))
	f.Fuzz(func(t *testing.T, raw []byte, rowsRaw, kRaw, nRaw uint8) {
		rows, k, n := 1+int(rowsRaw)%40, int(kRaw)%48, 1+int(nRaw)%24
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
		a, b := New(rows, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = next()
		}
		for i := range b.Data {
			b.Data[i] = next()
		}
		checkPackedMatchesRows(t, a, b)
	})
}

// The benchmark shapes are the perf-shape WiFi model's two extremes: a
// trunk layer that fits L2 and the fine head that fills it, at a full
// 32-row pass in both layouts and, for the head, the lone row that
// always reads row-major.
func benchmarkGemm(b *testing.B, rows, k, n int, packed bool) {
	rng := NewRand(5)
	w, a, dst := New(k, n), New(rows, k), New(rows, n)
	FillNormal(w, rng, 0, 1)
	FillNormal(a, rng, 0, 1)
	p := Pack(w)
	b.SetBytes(int64(8 * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if packed {
			p.MulInto(dst, a)
		} else {
			MatMulInto(dst, a, w)
		}
	}
	b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkGemmB32Trunk256x256RowMajor(b *testing.B) { benchmarkGemm(b, 32, 256, 256, false) }
func BenchmarkGemmB32Trunk256x256Packed(b *testing.B)   { benchmarkGemm(b, 32, 256, 256, true) }
func BenchmarkGemmB32Head256x1002RowMajor(b *testing.B) { benchmarkGemm(b, 32, 256, 1002, false) }
func BenchmarkGemmB32Head256x1002Packed(b *testing.B)   { benchmarkGemm(b, 32, 256, 1002, true) }
func BenchmarkGemmB1Head256x1002RowMajor(b *testing.B)  { benchmarkGemm(b, 1, 256, 1002, false) }

func BenchmarkPackHead256x1002(b *testing.B) {
	w := New(256, 1002)
	FillNormal(w, NewRand(5), 0, 1)
	for i := 0; i < b.N; i++ {
		Pack(w)
	}
}
