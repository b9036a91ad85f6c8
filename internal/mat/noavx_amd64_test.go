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
