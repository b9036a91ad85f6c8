//go:build amd64

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

// func gemm4x8avx(kn int, a0, a1, a2, a3 *float64, b *float64, ldb int,
//                 d0, d1, d2, d3 *float64)
//
// Register layout: Y0..Y7 hold the 4×8 accumulator tile (two YMM per
// row), Y8/Y9 the current eight b values, Y10 the broadcast a value,
// Y11 the product. Multiplies and adds stay separate (VMULPD + VADDPD,
// no FMA) so every element accumulates with exactly the same rounding
// as the pure-Go kernels.
TEXT ·gemm4x8avx(SB), NOSPLIT, $0-88
	MOVQ kn+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), DX
	SHLQ $3, DX            // b row stride in bytes

	// Load the current accumulator tile.
	MOVQ d0+56(FP), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	MOVQ d1+64(FP), AX
	VMOVUPD (AX), Y2
	VMOVUPD 32(AX), Y3
	MOVQ d2+72(FP), AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	MOVQ d3+80(FP), AX
	VMOVUPD (AX), Y6
	VMOVUPD 32(AX), Y7

	TESTQ CX, CX
	JZ    store

kloop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9

	VBROADCASTSD (R8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

	VBROADCASTSD (R9), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

	VBROADCASTSD (R10), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

	VBROADCASTSD (R11), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ DX, BX
	DECQ CX
	JNZ  kloop

store:
	MOVQ d0+56(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	MOVQ d1+64(FP), AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	MOVQ d2+72(FP), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	MOVQ d3+80(FP), AX
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	VZEROUPPER
	RET

// func gemm8x4avx(kn int, a0, a1, a2, a3, a4, a5, a6, a7 *float64,
//                 b *float64, ldb int, d0, d1, d2, d3, d4, d5, d6, d7 *float64)
//
// Eight-row × four-column tile: Y0..Y7 are the per-row accumulators,
// Y8 the current four b values, Y9 the broadcast a value, Y10 the
// product. Halves the b-matrix traffic per output row relative to the
// 4×8 tile. ldb is b's row stride in elements: b.Cols for a row-major
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
