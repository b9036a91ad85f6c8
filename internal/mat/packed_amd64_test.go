//go:build amd64

package mat

import "testing"

// With the AVX tiles switched off, Pack copies nothing and MulInto is
// MatMulInto's pure-Go kernels over the row-major source — what every
// non-amd64 build and pre-AVX host runs — and must still match the row
// kernel bit for bit.
func TestPackedMatchesRowKernelWithoutAVX(t *testing.T) {
	if !useAVXGemm {
		t.Skip("no AVX: TestPackedMatchesRowKernelBitForBit already ran the fallback")
	}
	useAVXGemm = false
	defer func() { useAVXGemm = true }()
	if n := Pack(New(8, 8)).Bytes(); n != 0 {
		t.Fatalf("packed %d bytes with no kernel to read them", n)
	}
	testPackedMatchesRows(t)
}
