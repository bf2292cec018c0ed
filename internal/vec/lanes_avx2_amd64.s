//go:build amd64

#include "textflag.h"

// AVX2 kernels of the gradient path — the TierAVX2 implementations
// behind accumulateRows (MatMul, MatMulATB) and Axpy, dispatched by
// lanes_amd64.go.
//
// Lanes run across j, never across k: lane j of a vector holds element
// j of the destination row, and every element sees exactly the
// operations of the scalar loop `d[j] += a·b[j]` — a rounded multiply
// (VMULPD) then a rounded add (VADDPD), one term after another in the
// caller's order. Nothing is fused and nothing is reduced across
// lanes, so the result is the scalar loop's bit for bit and belongs to
// no accumulation-order family; an FMA here would drop the product
// rounding and move result bytes (dense_ref_test.go fails on it). The
// n mod 4 tail runs the same two operations on scalars
// (VMULSD / VADDSD). Where a multiply or add meets two NaNs, the first
// source operand's payload survives: the coefficient's over the row's,
// the accumulator's over the product's.

// func axpyAVX2(alpha float64, x, y *float64, n int)
//
// y[j] += alpha·x[j] for j < n. x and y may be the same vector; a
// partial overlap is not supported.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	XORQ         DX, DX
	MOVQ         CX, AX
	ANDQ         $-16, AX
	CMPQ         DX, AX
	JGE          axpy4
axpyloop16:
	VMULPD  (SI)(DX*8), Y15, Y0
	VMULPD  32(SI)(DX*8), Y15, Y1
	VMULPD  64(SI)(DX*8), Y15, Y2
	VMULPD  96(SI)(DX*8), Y15, Y3
	VMOVUPD (DI)(DX*8), Y4
	VMOVUPD 32(DI)(DX*8), Y5
	VMOVUPD 64(DI)(DX*8), Y6
	VMOVUPD 96(DI)(DX*8), Y7
	VADDPD  Y0, Y4, Y4
	VADDPD  Y1, Y5, Y5
	VADDPD  Y2, Y6, Y6
	VADDPD  Y3, Y7, Y7
	VMOVUPD Y4, (DI)(DX*8)
	VMOVUPD Y5, 32(DI)(DX*8)
	VMOVUPD Y6, 64(DI)(DX*8)
	VMOVUPD Y7, 96(DI)(DX*8)
	ADDQ    $16, DX
	CMPQ    DX, AX
	JLT     axpyloop16
axpy4:
	MOVQ CX, AX
	ANDQ $-4, AX
	CMPQ DX, AX
	JGE  axpytail
axpyloop4:
	VMULPD  (SI)(DX*8), Y15, Y0
	VMOVUPD (DI)(DX*8), Y4
	VADDPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, AX
	JLT     axpyloop4
axpytail:
	CMPQ   DX, CX
	JGE    axpydone
	VMULSD (SI)(DX*8), X15, X0
	VMOVSD (DI)(DX*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DI)(DX*8)
	INCQ   DX
	JMP    axpytail
axpydone:
	VZEROUPPER
	RET

// func accum4AVX2(d *float64, n int, b *float64, offs *int, coefs *float64, groups int)
//
// For each of `groups` consecutive groups of four (offs, coefs)
// entries, in order:
//
//	d[j] = (((d[j] + c0·b[o0+j]) + c1·b[o1+j]) + c2·b[o2+j]) + c3·b[o3+j]   for j < n
//
// — one load and one store of d per four terms, each element's terms
// still added one by one in list order. offs are element offsets into
// b (k·Cols for row k).
TEXT ·accum4AVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ offs+24(FP), R12
	MOVQ coefs+32(FP), R13
	MOVQ groups+40(FP), R14
	MOVQ CX, BX
	ANDQ $-8, BX              // BX = n &^ 7: the two-vector prefix
group:
	TESTQ        R14, R14
	JZ           accumdone
	MOVQ         0(R12), R8
	MOVQ         8(R12), R9
	MOVQ         16(R12), R10
	MOVQ         24(R12), R11
	LEAQ         (SI)(R8*8), R8   // the four rows of b
	LEAQ         (SI)(R9*8), R9
	LEAQ         (SI)(R10*8), R10
	LEAQ         (SI)(R11*8), R11
	VBROADCASTSD 0(R13), Y12      // and their coefficients
	VBROADCASTSD 8(R13), Y13
	VBROADCASTSD 16(R13), Y14
	VBROADCASTSD 24(R13), Y15
	XORQ         DX, DX
	CMPQ         DX, BX
	JGE          accum4
accumloop8:
	VMOVUPD (DI)(DX*8), Y0
	VMOVUPD 32(DI)(DX*8), Y1
	VMULPD  (R8)(DX*8), Y12, Y2
	VMULPD  32(R8)(DX*8), Y12, Y3
	VMULPD  (R9)(DX*8), Y13, Y4
	VMULPD  32(R9)(DX*8), Y13, Y5
	VMULPD  (R10)(DX*8), Y14, Y6
	VMULPD  32(R10)(DX*8), Y14, Y7
	VMULPD  (R11)(DX*8), Y15, Y8
	VMULPD  32(R11)(DX*8), Y15, Y9
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, 32(DI)(DX*8)
	ADDQ    $8, DX
	CMPQ    DX, BX
	JLT     accumloop8
accum4:
	MOVQ    CX, AX
	ANDQ    $-4, AX
	CMPQ    DX, AX
	JGE     accumtail
	VMOVUPD (DI)(DX*8), Y0
	VMULPD  (R8)(DX*8), Y12, Y2
	VMULPD  (R9)(DX*8), Y13, Y4
	VMULPD  (R10)(DX*8), Y14, Y6
	VMULPD  (R11)(DX*8), Y15, Y8
	VADDPD  Y2, Y0, Y0
	VADDPD  Y4, Y0, Y0
	VADDPD  Y6, Y0, Y0
	VADDPD  Y8, Y0, Y0
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ    $4, DX
accumtail:
	CMPQ   DX, CX
	JGE    nextgroup
	VMOVSD (DI)(DX*8), X0
	VMULSD (R8)(DX*8), X12, X2
	VMULSD (R9)(DX*8), X13, X4
	VMULSD (R10)(DX*8), X14, X6
	VMULSD (R11)(DX*8), X15, X8
	VADDSD X2, X0, X0
	VADDSD X4, X0, X0
	VADDSD X6, X0, X0
	VADDSD X8, X0, X0
	VMOVSD X0, (DI)(DX*8)
	INCQ   DX
	JMP    accumtail
nextgroup:
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ R14
	JMP  group
accumdone:
	VZEROUPPER
	RET
