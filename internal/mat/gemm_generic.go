//go:build !amd64

package mat

// Non-amd64 builds always take the pure-Go blocked kernel.
const useAVXGemm = false

// The assembly kernels are never called when useAVXGemm is false; these
// stubs keep the package compiling on other architectures.

func gemm8x4avx(kn int, a0, a1, a2, a3, a4, a5, a6, a7 *float64,
	b *float64, ldb int, d0, d1, d2, d3, d4, d5, d6, d7 *float64) {
	panic("mat: gemm8x4avx called on non-amd64 build")
}

func rowSweep4avx(n int, d, b0, b1, b2, b3, a *float64) {
	panic("mat: rowSweep4avx called on non-amd64 build")
}

func rowSweep4x2avx(n int, d0, d1, b0, b1, b2, b3, a0, a1 *float64) {
	panic("mat: rowSweep4x2avx called on non-amd64 build")
}

func rowSweep1avx(n int, d, b *float64, a float64) {
	panic("mat: rowSweep1avx called on non-amd64 build")
}

func rowSweep4avx32(n int, d, b0, b1, b2, b3, a *float32) {
	panic("mat: rowSweep4avx32 called on non-amd64 build")
}
