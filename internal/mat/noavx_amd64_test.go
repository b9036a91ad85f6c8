//go:build amd64

package mat

import "testing"

// withoutAVX runs f with the assembly kernels switched off — the
// pure-Go paths every non-amd64 build and pre-AVX host runs.
func withoutAVX(t *testing.T, f func(t *testing.T)) {
	if !useAVXGemm {
		t.Skip("no AVX: the plain test already ran the fallback")
	}
	useAVXGemm = false
	defer func() { useAVXGemm = true }()
	f(t)
}

// With the AVX tiles switched off, Pack copies nothing and MulInto is
// MatMulInto's pure-Go kernels over the row-major source, and must still
// match the reference loop bit for bit.
func TestPackedMatchesRowKernelWithoutAVX(t *testing.T) {
	withoutAVX(t, func(t *testing.T) {
		if n := Pack(New(8, 8)).Bytes(); n != 0 {
			t.Fatalf("packed %d bytes with no kernel to read them", n)
		}
		testPackedMatchesRows(t)
	})
}

// The 1–4-row passes without the sweep: the scalar row with its zero
// skip, and the pure-Go four-row block with its last row repeated.
func TestRowSweepMatchesReferenceWithoutAVX(t *testing.T) {
	withoutAVX(t, testRowSweepMatchesReference)
}

// Without the AVX sweep there is no fp32 kernel: NewScreen builds
// nothing, every row goes back to the fp64 product, and no case may
// answer wrongly on the way.
func TestScreenArgMaxWithoutAVX(t *testing.T) {
	withoutAVX(t, func(t *testing.T) {
		w := New(16, 24)
		FillNormal(w, NewRand(3), 0, 1)
		s := NewScreen(w)
		if s.Bytes() != 0 {
			t.Fatalf("built a %d-byte screen with no kernel to read it", s.Bytes())
		}
		if s.ArgMax(New(1, 16), make([]float64, 24)) != nil {
			t.Fatal("a screen that was never built answered")
		}
		testScreenArgMaxMatchesReference(t)
	})
}
