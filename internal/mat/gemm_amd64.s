//go:build amd64

// The fp64 kernels behind MatMulInto and Packed.MulInto, AVX1 only and
// un-fused (see useAVXGemm). gemm8x4avx is a register tile: it keeps an
// 8×4 block of the output in YMM registers while it walks down b one
// row per k step (every pass of five rows or more). The row sweep —
// rowSweep4avx, rowSweep4x2avx, rowSweep1avx — keeps four k in registers
// while it walks along b's rows (passes of one to four rows);
// rowSweep4avx32 is its fp32 form, which scores the class-head screen
// (screen.go). Go declarations and measured rates: gemm_amd64.go,
// matMulRows.

#include "textflag.h"

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm8x4avx(kn int, a0, a1, a2, a3, a4, a5, a6, a7 *float64,
//                 b *float64, ldb int, d0, d1, d2, d3, d4, d5, d6, d7 *float64)
//
// Eight-row × four-column tile: Y0..Y7 are the per-row accumulators,
// Y8 the current four b values, Y9 the broadcast a value, Y10 the
// product; each loaded b vector feeds eight rows. ldb is b's row stride
// in elements: b.Cols for a row-major
// matrix, 4 for a Packed panel, where the k sweep is one sequential run
// (measured rates for both in gemm_amd64.go). Same un-fused ascending-k
// accumulation as everywhere else.
TEXT ·gemm8x4avx(SB), NOSPLIT, $0-152
	MOVQ kn+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ a4+40(FP), R12
	MOVQ a5+48(FP), R13
	MOVQ a6+56(FP), R14
	MOVQ a7+64(FP), R15
	MOVQ b+72(FP), BX
	MOVQ ldb+80(FP), DX
	SHLQ $3, DX            // b row stride in bytes

	MOVQ d0+88(FP), AX
	VMOVUPD (AX), Y0
	MOVQ d1+96(FP), AX
	VMOVUPD (AX), Y1
	MOVQ d2+104(FP), AX
	VMOVUPD (AX), Y2
	MOVQ d3+112(FP), AX
	VMOVUPD (AX), Y3
	MOVQ d4+120(FP), AX
	VMOVUPD (AX), Y4
	MOVQ d5+128(FP), AX
	VMOVUPD (AX), Y5
	MOVQ d6+136(FP), AX
	VMOVUPD (AX), Y6
	MOVQ d7+144(FP), AX
	VMOVUPD (AX), Y7

	XORQ SI, SI            // k index
	TESTQ CX, CX
	JZ    store8

kloop8:
	VMOVUPD (BX), Y8

	VBROADCASTSD (R8)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y0, Y0
	VBROADCASTSD (R9)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y1, Y1
	VBROADCASTSD (R10)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y2, Y2
	VBROADCASTSD (R11)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y3, Y3
	VBROADCASTSD (R12)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y4, Y4
	VBROADCASTSD (R13)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y5, Y5
	VBROADCASTSD (R14)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y6, Y6
	VBROADCASTSD (R15)(SI*8), Y9
	VMULPD Y8, Y9, Y10
	VADDPD Y10, Y7, Y7

	ADDQ DX, BX
	INCQ SI
	CMPQ SI, CX
	JLT  kloop8

store8:
	MOVQ d0+88(FP), AX
	VMOVUPD Y0, (AX)
	MOVQ d1+96(FP), AX
	VMOVUPD Y1, (AX)
	MOVQ d2+104(FP), AX
	VMOVUPD Y2, (AX)
	MOVQ d3+112(FP), AX
	VMOVUPD Y3, (AX)
	MOVQ d4+120(FP), AX
	VMOVUPD Y4, (AX)
	MOVQ d5+128(FP), AX
	VMOVUPD Y5, (AX)
	MOVQ d6+136(FP), AX
	VMOVUPD Y6, (AX)
	MOVQ d7+144(FP), AX
	VMOVUPD Y7, (AX)
	VZEROUPPER
	RET

// func rowSweep4avx(n int, d, b0, b1, b2, b3, a *float64)
//
// The row sweep: one output row, four k per call, left to right over
// four sequential b rows —
//
//	d[j] = (((d[j] + a[0]·b0[j]) + a[1]·b1[j]) + a[2]·b2[j]) + a[3]·b3[j]
//
// for j in [0, n). Where the tiles hold a few columns in registers and
// stride down b one row per k step, the sweep holds four k in registers
// (Y12..Y15, broadcast) and streams every operand sequentially, so a
// wide b costs it nothing; d is re-read and re-written once per four k,
// from L1. The main loop covers sixteen columns (Y0..Y3, four
// independent add chains), then four at a time, then the last n%4
// columns with the scalar forms. Un-fused VMULPD/VADDPD in ascending k:
// per element exactly matMulRow's rounding. The b rows need not be
// adjacent — the lone-row caller passes the rows of its non-zero inputs.
TEXT ·rowSweep4avx(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ d+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ a+48(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	XORQ SI, SI            // column index

	MOVQ CX, DX
	ANDQ $~15, DX          // end of the sixteen-column steps
	CMPQ SI, DX
	JGE  sweep4cols4

sweep4cols16:
	VMOVUPD (DI)(SI*8), Y0
	VMOVUPD 32(DI)(SI*8), Y1
	VMOVUPD 64(DI)(SI*8), Y2
	VMOVUPD 96(DI)(SI*8), Y3

	VMULPD (R8)(SI*8), Y12, Y4
	VMULPD 32(R8)(SI*8), Y12, Y5
	VMULPD 64(R8)(SI*8), Y12, Y6
	VMULPD 96(R8)(SI*8), Y12, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMULPD (R9)(SI*8), Y13, Y4
	VMULPD 32(R9)(SI*8), Y13, Y5
	VMULPD 64(R9)(SI*8), Y13, Y6
	VMULPD 96(R9)(SI*8), Y13, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMULPD (R10)(SI*8), Y14, Y4
	VMULPD 32(R10)(SI*8), Y14, Y5
	VMULPD 64(R10)(SI*8), Y14, Y6
	VMULPD 96(R10)(SI*8), Y14, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMULPD (R11)(SI*8), Y15, Y4
	VMULPD 32(R11)(SI*8), Y15, Y5
	VMULPD 64(R11)(SI*8), Y15, Y6
	VMULPD 96(R11)(SI*8), Y15, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMOVUPD Y0, (DI)(SI*8)
	VMOVUPD Y1, 32(DI)(SI*8)
	VMOVUPD Y2, 64(DI)(SI*8)
	VMOVUPD Y3, 96(DI)(SI*8)
	ADDQ $16, SI
	CMPQ SI, DX
	JLT  sweep4cols16

sweep4cols4:
	MOVQ CX, DX
	ANDQ $~3, DX           // end of the four-column steps
	CMPQ SI, DX
	JGE  sweep4cols1

sweep4cols4loop:
	VMOVUPD (DI)(SI*8), Y0
	VMULPD (R8)(SI*8), Y12, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R9)(SI*8), Y13, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R10)(SI*8), Y14, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R11)(SI*8), Y15, Y4
	VADDPD Y4, Y0, Y0
	VMOVUPD Y0, (DI)(SI*8)
	ADDQ $4, SI
	CMPQ SI, DX
	JLT  sweep4cols4loop

sweep4cols1:
	CMPQ SI, CX
	JGE  sweep4done

sweep4cols1loop:
	VMOVSD (DI)(SI*8), X0
	VMULSD (R8)(SI*8), X12, X4
	VADDSD X4, X0, X0
	VMULSD (R9)(SI*8), X13, X4
	VADDSD X4, X0, X0
	VMULSD (R10)(SI*8), X14, X4
	VADDSD X4, X0, X0
	VMULSD (R11)(SI*8), X15, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)(SI*8)
	INCQ SI
	CMPQ SI, CX
	JLT  sweep4cols1loop

sweep4done:
	VZEROUPPER
	RET

// func rowSweep4x2avx(n int, d0, d1, b0, b1, b2, b3, a0, a1 *float64)
//
// rowSweep4avx for two output rows at once: each loaded b vector feeds
// both rows, which halves the b traffic of a 2–4-row pass. Y8..Y11 hold
// row 0's four a values, Y12..Y15 row 1's; eight columns per step (Y0,
// Y1 row 0; Y2, Y3 row 1), then the last n%8 one at a time.
TEXT ·rowSweep4x2avx(SB), NOSPLIT, $0-72
	MOVQ n+0(FP), CX
	MOVQ d0+8(FP), DI
	MOVQ d1+16(FP), BX
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ b2+40(FP), R10
	MOVQ b3+48(FP), R11
	MOVQ a0+56(FP), AX
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	MOVQ a1+64(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	XORQ SI, SI            // column index

	MOVQ CX, DX
	ANDQ $~7, DX           // end of the eight-column steps
	CMPQ SI, DX
	JGE  sweep4x2cols1

sweep4x2cols8:
	VMOVUPD (DI)(SI*8), Y0
	VMOVUPD 32(DI)(SI*8), Y1
	VMOVUPD (BX)(SI*8), Y2
	VMOVUPD 32(BX)(SI*8), Y3

	VMOVUPD (R8)(SI*8), Y4
	VMOVUPD 32(R8)(SI*8), Y5
	VMULPD Y4, Y8, Y6
	VMULPD Y5, Y8, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VMULPD Y4, Y12, Y6
	VMULPD Y5, Y12, Y7
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMOVUPD (R9)(SI*8), Y4
	VMOVUPD 32(R9)(SI*8), Y5
	VMULPD Y4, Y9, Y6
	VMULPD Y5, Y9, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VMULPD Y4, Y13, Y6
	VMULPD Y5, Y13, Y7
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMOVUPD (R10)(SI*8), Y4
	VMOVUPD 32(R10)(SI*8), Y5
	VMULPD Y4, Y10, Y6
	VMULPD Y5, Y10, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VMULPD Y4, Y14, Y6
	VMULPD Y5, Y14, Y7
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMOVUPD (R11)(SI*8), Y4
	VMOVUPD 32(R11)(SI*8), Y5
	VMULPD Y4, Y11, Y6
	VMULPD Y5, Y11, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VMULPD Y4, Y15, Y6
	VMULPD Y5, Y15, Y7
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VMOVUPD Y0, (DI)(SI*8)
	VMOVUPD Y1, 32(DI)(SI*8)
	VMOVUPD Y2, (BX)(SI*8)
	VMOVUPD Y3, 32(BX)(SI*8)
	ADDQ $8, SI
	CMPQ SI, DX
	JLT  sweep4x2cols8

sweep4x2cols1:
	CMPQ SI, CX
	JGE  sweep4x2done

sweep4x2cols1loop:
	VMOVSD (DI)(SI*8), X0
	VMOVSD (BX)(SI*8), X2
	VMOVSD (R8)(SI*8), X4
	VMULSD X4, X8, X6
	VADDSD X6, X0, X0
	VMULSD X4, X12, X6
	VADDSD X6, X2, X2
	VMOVSD (R9)(SI*8), X4
	VMULSD X4, X9, X6
	VADDSD X6, X0, X0
	VMULSD X4, X13, X6
	VADDSD X6, X2, X2
	VMOVSD (R10)(SI*8), X4
	VMULSD X4, X10, X6
	VADDSD X6, X0, X0
	VMULSD X4, X14, X6
	VADDSD X6, X2, X2
	VMOVSD (R11)(SI*8), X4
	VMULSD X4, X11, X6
	VADDSD X6, X0, X0
	VMULSD X4, X15, X6
	VADDSD X6, X2, X2
	VMOVSD X0, (DI)(SI*8)
	VMOVSD X2, (BX)(SI*8)
	INCQ SI
	CMPQ SI, CX
	JLT  sweep4x2cols1loop

sweep4x2done:
	VZEROUPPER
	RET

// func rowSweep1avx(n int, d, b *float64, a float64)
//
// The one-k sweep, d[j] += a·b[j] for j in [0, n): the one to three
// inputs a row has left after its groups of four. They get their own
// sweeps rather than a padded group, so no product is formed with a b
// row the scalar loop would not have read.
TEXT ·rowSweep1avx(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ d+8(FP), DI
	MOVQ b+16(FP), R8
	VBROADCASTSD a+24(FP), Y12
	XORQ SI, SI            // column index

	MOVQ CX, DX
	ANDQ $~3, DX           // end of the four-column steps
	CMPQ SI, DX
	JGE  sweep1cols1

sweep1cols4:
	VMULPD (R8)(SI*8), Y12, Y4
	VADDPD (DI)(SI*8), Y4, Y0
	VMOVUPD Y0, (DI)(SI*8)
	ADDQ $4, SI
	CMPQ SI, DX
	JLT  sweep1cols4

sweep1cols1:
	CMPQ SI, CX
	JGE  sweep1done

sweep1cols1loop:
	VMULSD (R8)(SI*8), X12, X4
	VADDSD (DI)(SI*8), X4, X0
	VMOVSD X0, (DI)(SI*8)
	INCQ SI
	CMPQ SI, CX
	JLT  sweep1cols1loop

sweep1done:
	VZEROUPPER
	RET

// func rowSweep4avx32(n int, d, b0, b1, b2, b3, a *float32)
//
// rowSweep4avx in fp32, for the class-head screen (screen.go): the same
// left-to-right sweep over four b rows, four k broadcast in Y12..Y15,
// with VMULPS/VADDPS on eight columns per register —
//
//	d[j] = (((d[j] + a[0]·b0[j]) + a[1]·b1[j]) + a[2]·b2[j]) + a[3]·b3[j]
//
// rounded to fp32 at every multiply and add. Thirty-two columns per step
// (Y0..Y3), then eight at a time, then the last n%8 with the scalar
// forms. Its sums are scores, not answers: Screen.ArgMax bounds their
// error and recomputes in fp64 every column the bound cannot rule out.
TEXT ·rowSweep4avx32(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ d+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ b2+32(FP), R10
	MOVQ b3+40(FP), R11
	MOVQ a+48(FP), AX
	VBROADCASTSS (AX), Y12
	VBROADCASTSS 4(AX), Y13
	VBROADCASTSS 8(AX), Y14
	VBROADCASTSS 12(AX), Y15
	XORQ SI, SI            // column index

	MOVQ CX, DX
	ANDQ $~31, DX          // end of the thirty-two-column steps
	CMPQ SI, DX
	JGE  sweep32cols8

sweep32cols32:
	VMOVUPS (DI)(SI*4), Y0
	VMOVUPS 32(DI)(SI*4), Y1
	VMOVUPS 64(DI)(SI*4), Y2
	VMOVUPS 96(DI)(SI*4), Y3

	VMULPS (R8)(SI*4), Y12, Y4
	VMULPS 32(R8)(SI*4), Y12, Y5
	VMULPS 64(R8)(SI*4), Y12, Y6
	VMULPS 96(R8)(SI*4), Y12, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R9)(SI*4), Y13, Y4
	VMULPS 32(R9)(SI*4), Y13, Y5
	VMULPS 64(R9)(SI*4), Y13, Y6
	VMULPS 96(R9)(SI*4), Y13, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R10)(SI*4), Y14, Y4
	VMULPS 32(R10)(SI*4), Y14, Y5
	VMULPS 64(R10)(SI*4), Y14, Y6
	VMULPS 96(R10)(SI*4), Y14, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMULPS (R11)(SI*4), Y15, Y4
	VMULPS 32(R11)(SI*4), Y15, Y5
	VMULPS 64(R11)(SI*4), Y15, Y6
	VMULPS 96(R11)(SI*4), Y15, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VMOVUPS Y0, (DI)(SI*4)
	VMOVUPS Y1, 32(DI)(SI*4)
	VMOVUPS Y2, 64(DI)(SI*4)
	VMOVUPS Y3, 96(DI)(SI*4)
	ADDQ $32, SI
	CMPQ SI, DX
	JLT  sweep32cols32

sweep32cols8:
	MOVQ CX, DX
	ANDQ $~7, DX           // end of the eight-column steps
	CMPQ SI, DX
	JGE  sweep32cols1

sweep32cols8loop:
	VMOVUPS (DI)(SI*4), Y0
	VMULPS (R8)(SI*4), Y12, Y4
	VADDPS Y4, Y0, Y0
	VMULPS (R9)(SI*4), Y13, Y4
	VADDPS Y4, Y0, Y0
	VMULPS (R10)(SI*4), Y14, Y4
	VADDPS Y4, Y0, Y0
	VMULPS (R11)(SI*4), Y15, Y4
	VADDPS Y4, Y0, Y0
	VMOVUPS Y0, (DI)(SI*4)
	ADDQ $8, SI
	CMPQ SI, DX
	JLT  sweep32cols8loop

sweep32cols1:
	CMPQ SI, CX
	JGE  sweep32done

sweep32cols1loop:
	VMOVSS (DI)(SI*4), X0
	VMULSS (R8)(SI*4), X12, X4
	VADDSS X4, X0, X0
	VMULSS (R9)(SI*4), X13, X4
	VADDSS X4, X0, X0
	VMULSS (R10)(SI*4), X14, X4
	VADDSS X4, X0, X0
	VMULSS (R11)(SI*4), X15, X4
	VADDSS X4, X0, X0
	VMOVSS X0, (DI)(SI*4)
	INCQ SI
	CMPQ SI, CX
	JLT  sweep32cols1loop

sweep32done:
	VZEROUPPER
	RET
