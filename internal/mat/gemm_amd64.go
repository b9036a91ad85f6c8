//go:build amd64

package mat

// useAVXGemm gates the assembly fp64 kernels — the 8×4 register tile and
// the row sweep (gemm_amd64.s) — on runtime CPU support: AVX
// must be present and the OS must save the YMM state (OSXSAVE +
// XCR0[2:1] = 11). The kernels use only AVX1 instructions (VBROADCASTSD
// from memory, VMULPD/VMULSD, VADDPD/VADDSD, VMOVUPD/VMOVSD, and their
// fp32 forms in the screen's kernels), so FMA/AVX2 are not required —
// deliberately: keeping multiplies and adds un-fused
// preserves the exact double-rounded semantics of the pure-Go kernels,
// so results are bit-identical whichever path runs.
var useAVXGemm = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6 // XMM and YMM state enabled by the OS
}

// cpuidex executes CPUID with the given EAX/ECX arguments.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// gemm8x4avx accumulates an 8-row × 4-column output tile over the full
// inner dimension: for r in 0..7, j in 0..3, k in 0..kn:
// d_r[j] += a_r[k] * b[k*ldb+j], with per-element ascending-k order and
// un-fused multiply/add — bit-identical to the Go kernels. The
// accumulators live in YMM registers for the whole k sweep, so each
// loaded b vector feeds eight rows and nothing is stored until the end.
// What it achieves depends on where b's four values per k step come
// from. Measured at 32 rows on the 2.1 GHz Xeon the bench runs on
// (docs/measurements/pr18-packed-panels.md): walking a row-major b
// (ldb = b.Cols, one 32-byte load per 8·Cols-byte stride, so every k
// step lands in a different 4 KB page once Cols > 512) it reaches ~26–30
// gflop/s on a 256×256 matrix and ~14–15 on a 256×1002 class head — it
// does not keep the head compute-bound; walking a Packed panel (ldb = 4,
// one sequential run of 32·K bytes) it reaches ~28 on the same head.
func gemm8x4avx(kn int, a0, a1, a2, a3, a4, a5, a6, a7 *float64,
	b *float64, ldb int, d0, d1, d2, d3, d4, d5, d6, d7 *float64)

// rowSweep4avx adds four inputs' worth of one output row, left to right:
// d[j] = (((d[j] + a[0]*b0[j]) + a[1]*b1[j]) + a[2]*b2[j]) + a[3]*b3[j]
// for j in [0, n), a pointing at four consecutive values and b0..b3 at
// any four rows of b — un-fused, ascending, matMulRow's rounding
// exactly. The 1–4-row kernel (matMulRowSweep, matMulRowsSweep): every
// operand is read sequentially, so b's row stride does not matter to it.
//
//go:noescape
func rowSweep4avx(n int, d, b0, b1, b2, b3, a *float64)

// rowSweep4x2avx is rowSweep4avx for the two output rows d0 and d1 (a
// values at a0 and a1) over the same four b rows, each b vector loaded
// once for both.
//
//go:noescape
func rowSweep4x2avx(n int, d0, d1, b0, b1, b2, b3, a0, a1 *float64)

// rowSweep1avx is the sweep for a single input: d[j] += a*b[j] for j in
// [0, n).
//
//go:noescape
func rowSweep1avx(n int, d, b *float64, a float64)

// screenRows4avx32 scores four rows over two adjacent eight-column
// screen panels (Screen), stride bytes apart: d_r receives, for each of
// the panels' sixteen columns j, Σ_k a_r[k]·W_kj, un-fused, in ascending
// k from zero, with each panel vector loaded once for the four rows.
//
//go:noescape
func screenRows4avx32(kn int, a0, a1, a2, a3 *float32, b *float32, stride int,
	d0, d1, d2, d3 *float32)

// screenRows2avx32 is screenRows4avx32 for two rows over four panels.
//
//go:noescape
func screenRows2avx32(kn int, a0, a1 *float32, b *float32, stride int, d0, d1 *float32)

// screenRows1avx32 is screenRows4avx32 for one row over eight panels.
//
//go:noescape
func screenRows1avx32(kn int, a *float32, b *float32, stride int, d *float32)
