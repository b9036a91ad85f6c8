package mat

import (
	"fmt"
	"math"
	"testing"
)

// checkPackedMatchesRows multiplies a by b through Pack/MulInto and
// requires every element to equal the plain triple loop's
// (matMulReference, the definition DESIGN §2 holds every fp64 path to),
// bit for bit. dst starts dirty: MulInto overwrites.
func checkPackedMatchesRows(t *testing.T, a, b *Dense) {
	t.Helper()
	got := New(a.Rows, b.Cols)
	got.Fill(math.NaN())
	Pack(b).MulInto(got, a)
	requireSameBits(t, got, matMulReference(a, b), a.Cols)
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
				a.Data[i] = 0 // fingerprints are sparse; the lone-row kernels skip zeros
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

// FuzzPackedMatMul drives shapes and values from raw bytes (fuzzOperands)
// through Pack/MulInto against the plain triple loop.
func FuzzPackedMatMul(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(5), uint8(3), uint8(4))
	f.Add([]byte{0x80, 0x7f, 0x01, 0xfe, 0x10}, uint8(9), uint8(17), uint8(6))
	f.Add([]byte{0xff, 0x00, 0x3c, 0xc3}, uint8(33), uint8(1), uint8(9))
	f.Add(make([]byte, 64), uint8(7), uint8(0), uint8(5))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(40), uint8(31), uint8(13))
	f.Fuzz(func(t *testing.T, raw []byte, rowsRaw, kRaw, nRaw uint8) {
		rows, k, n := 1+int(rowsRaw)%40, int(kRaw)%48, 1+int(nRaw)%24
		a, b := fuzzOperands(raw, rows, k, n)
		checkPackedMatchesRows(t, a, b)
	})
}

// packed is Packed.MulInto over w's panels, packed before the timer
// starts.
func packed(w *Dense) func(dst, a *Dense) { return Pack(w).MulInto }

// A full 32-row pass in both layouts over the perf-shape WiFi model's
// two extremes: a trunk layer that fits L2 and the fine head that fills
// it. (Passes of 1–4 rows: BenchmarkGemmB{1,2,3,4}.)
func BenchmarkGemmB32Trunk256x256RowMajor(b *testing.B) {
	benchmarkGemm(b, 32, 256, 256, false, rowMajor)
}
func BenchmarkGemmB32Trunk256x256Packed(b *testing.B) {
	benchmarkGemm(b, 32, 256, 256, false, packed)
}
func BenchmarkGemmB32Head256x1002RowMajor(b *testing.B) {
	benchmarkGemm(b, 32, 256, 1002, false, rowMajor)
}
func BenchmarkGemmB32Head256x1002Packed(b *testing.B) {
	benchmarkGemm(b, 32, 256, 1002, false, packed)
}

func BenchmarkPackHead256x1002(b *testing.B) {
	w := New(256, 1002)
	FillNormal(w, NewRand(5), 0, 1)
	for i := 0; i < b.N; i++ {
		Pack(w)
	}
}
