//go:build amd64

#include "textflag.h"

// AVX2+FMA Gram microkernels — the TierAVX2 implementations dispatched
// by gram_amd64.go when the CPU supports them (tier_amd64.go probe).
//
// Accumulation order ("fma4", defined by dotFMAGo in spec_test.go):
// each inner product keeps ONE four-lane YMM accumulator — lane j
// holds the fused partial sum of terms k ≡ j (mod 4) — and reduces as
// (s0 + s2) + (s1 + s3) via VEXTRACTF128 + VADDPD + ADDSD. The tail
// (n mod 4 elements) is folded with a VMASKMOVPD masked load of both
// operands: lane i < tail gets its fused term, masked-out lanes load
// zero and contribute fma(0, 0, s) = s, bit for bit. gram_test.go pins
// every column of both tiles to that definition and to fixed golden
// vectors across all tail residues.
//
// laneidx is the [0,1,2,3] qword vector the tail mask is built from:
// mask = (broadcast(tail) > laneidx), signed qword compare.

DATA laneidx<>+0(SB)/8, $0
DATA laneidx<>+8(SB)/8, $1
DATA laneidx<>+16(SB)/8, $2
DATA laneidx<>+24(SB)/8, $3
GLOBL laneidx<>(SB), RODATA|NOPTR, $32

// func dot4AVX2(a, b0, b1, b2, b3 *float64, n int, out *[4]float64)
//
// The 1×4 column tile in fma4 order: one 256-bit load of a[k:k+4]
// feeds four independent fused column chains, each in the fma4 order
// of its own pair — the tile is an arrangement, never a different sum.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ   a+0(FP), SI
	MOVQ   b0+8(FP), R8
	MOVQ   b1+16(FP), R9
	MOVQ   b2+24(FP), R10
	MOVQ   b3+32(FP), R11
	MOVQ   n+40(FP), CX
	MOVQ   out+48(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   DX, DX
	MOVQ   CX, AX
	ANDQ   $-4, AX
	CMPQ   DX, AX
	JGE    tail4
loop4:
	VMOVUPD     (SI)(DX*8), Y4
	VMOVUPD     (R8)(DX*8), Y5
	VFMADD231PD Y5, Y4, Y0
	VMOVUPD     (R9)(DX*8), Y6
	VFMADD231PD Y6, Y4, Y1
	VMOVUPD     (R10)(DX*8), Y7
	VFMADD231PD Y7, Y4, Y2
	VMOVUPD     (R11)(DX*8), Y8
	VFMADD231PD Y8, Y4, Y3
	ADDQ        $4, DX
	CMPQ        DX, AX
	JLT         loop4
tail4:
	MOVQ  CX, R12
	SUBQ  DX, R12
	TESTQ R12, R12
	JZ    reduce4
	MOVQ         R12, X4
	VPBROADCASTQ X4, Y4
	VMOVDQU      laneidx<>(SB), Y5
	VPCMPGTQ     Y5, Y4, Y9
	VMASKMOVPD   (SI)(DX*8), Y9, Y4
	VMASKMOVPD   (R8)(DX*8), Y9, Y5
	VFMADD231PD  Y5, Y4, Y0
	VMASKMOVPD   (R9)(DX*8), Y9, Y6
	VFMADD231PD  Y6, Y4, Y1
	VMASKMOVPD   (R10)(DX*8), Y9, Y7
	VFMADD231PD  Y7, Y4, Y2
	VMASKMOVPD   (R11)(DX*8), Y9, Y8
	VFMADD231PD  Y8, Y4, Y3
reduce4:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPD       X5, X1, X1
	VEXTRACTF128 $1, Y2, X6
	VADDPD       X6, X2, X2
	VEXTRACTF128 $1, Y3, X7
	VADDPD       X7, X3, X3
	VZEROUPPER
	MOVAPD   X0, X4
	UNPCKHPD X4, X4
	ADDSD    X4, X0
	MOVSD    X0, (BX)
	MOVAPD   X1, X5
	UNPCKHPD X5, X5
	ADDSD    X5, X1
	MOVSD    X1, 8(BX)
	MOVAPD   X2, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X2
	MOVSD    X2, 16(BX)
	MOVAPD   X3, X7
	UNPCKHPD X7, X7
	ADDSD    X7, X3
	MOVSD    X3, 24(BX)
	RET

// func dot24AVX2(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)
//
// The 2×4 tile in fma4 order: Y0..Y3 accumulate a0 against b0..b3,
// Y4..Y7 accumulate a1 against the same columns, and every streamed
// 256-bit column load is reused by both rows — the bandwidth saving
// the blocked builder exists for (see dist.go stage).
TEXT ·dot24AVX2(SB), NOSPLIT, $0-64
	MOVQ   a0+0(FP), SI
	MOVQ   a1+8(FP), DI
	MOVQ   b0+16(FP), R8
	MOVQ   b1+24(FP), R9
	MOVQ   b2+32(FP), R10
	MOVQ   b3+40(FP), R11
	MOVQ   n+48(FP), CX
	MOVQ   out+56(FP), BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   DX, DX
	MOVQ   CX, AX
	ANDQ   $-4, AX
	CMPQ   DX, AX
	JGE    tail24
loop24:
	VMOVUPD     (SI)(DX*8), Y8
	VMOVUPD     (DI)(DX*8), Y9
	VMOVUPD     (R8)(DX*8), Y10
	VFMADD231PD Y10, Y8, Y0
	VFMADD231PD Y10, Y9, Y4
	VMOVUPD     (R9)(DX*8), Y11
	VFMADD231PD Y11, Y8, Y1
	VFMADD231PD Y11, Y9, Y5
	VMOVUPD     (R10)(DX*8), Y12
	VFMADD231PD Y12, Y8, Y2
	VFMADD231PD Y12, Y9, Y6
	VMOVUPD     (R11)(DX*8), Y13
	VFMADD231PD Y13, Y8, Y3
	VFMADD231PD Y13, Y9, Y7
	ADDQ        $4, DX
	CMPQ        DX, AX
	JLT         loop24
tail24:
	MOVQ  CX, R12
	SUBQ  DX, R12
	TESTQ R12, R12
	JZ    reduce24
	MOVQ         R12, X8
	VPBROADCASTQ X8, Y8
	VMOVDQU      laneidx<>(SB), Y9
	VPCMPGTQ     Y9, Y8, Y14
	VMASKMOVPD   (SI)(DX*8), Y14, Y8
	VMASKMOVPD   (DI)(DX*8), Y14, Y9
	VMASKMOVPD   (R8)(DX*8), Y14, Y10
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y4
	VMASKMOVPD   (R9)(DX*8), Y14, Y11
	VFMADD231PD  Y11, Y8, Y1
	VFMADD231PD  Y11, Y9, Y5
	VMASKMOVPD   (R10)(DX*8), Y14, Y12
	VFMADD231PD  Y12, Y8, Y2
	VFMADD231PD  Y12, Y9, Y6
	VMASKMOVPD   (R11)(DX*8), Y14, Y13
	VFMADD231PD  Y13, Y8, Y3
	VFMADD231PD  Y13, Y9, Y7
reduce24:
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VEXTRACTF128 $1, Y1, X9
	VADDPD       X9, X1, X1
	VEXTRACTF128 $1, Y2, X10
	VADDPD       X10, X2, X2
	VEXTRACTF128 $1, Y3, X11
	VADDPD       X11, X3, X3
	VEXTRACTF128 $1, Y4, X12
	VADDPD       X12, X4, X4
	VEXTRACTF128 $1, Y5, X13
	VADDPD       X13, X5, X5
	VEXTRACTF128 $1, Y6, X14
	VADDPD       X14, X6, X6
	VEXTRACTF128 $1, Y7, X15
	VADDPD       X15, X7, X7
	VZEROUPPER
	MOVAPD   X0, X8
	UNPCKHPD X8, X8
	ADDSD    X8, X0
	MOVSD    X0, (BX)
	MOVAPD   X1, X9
	UNPCKHPD X9, X9
	ADDSD    X9, X1
	MOVSD    X1, 8(BX)
	MOVAPD   X2, X10
	UNPCKHPD X10, X10
	ADDSD    X10, X2
	MOVSD    X2, 16(BX)
	MOVAPD   X3, X11
	UNPCKHPD X11, X11
	ADDSD    X11, X3
	MOVSD    X3, 24(BX)
	MOVAPD   X4, X12
	UNPCKHPD X12, X12
	ADDSD    X12, X4
	MOVSD    X4, 32(BX)
	MOVAPD   X5, X13
	UNPCKHPD X13, X13
	ADDSD    X13, X5
	MOVSD    X5, 40(BX)
	MOVAPD   X6, X14
	UNPCKHPD X14, X14
	ADDSD    X14, X6
	MOVSD    X6, 48(BX)
	MOVAPD   X7, X15
	UNPCKHPD X15, X15
	ADDSD    X15, X7
	MOVSD    X7, 56(BX)
	RET
