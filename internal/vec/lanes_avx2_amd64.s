//go:build amd64

#include "textflag.h"

// AVX2 kernels of the gradient path — the TierAVX2 implementations
// behind MatMul and MatMulATB (accumRowAVX2, one call per output row)
// and Axpy (axpyAVX2), dispatched by lanes_amd64.go.
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

// func accumRowAVX2(d *float64, n int, b *float64, cols int, coef *float64, stride int, terms int)
//
// One row of a matrix product, written from +0:
//
//	d[j] = ((+0 + c_k0·b[k0·cols+j]) + c_k1·b[k1·cols+j]) + …   for j < n
//
// over the k < terms, in increasing order, whose coefficient
// c_k = coef[k·stride] is not ±0. The kernel walks the coefficient
// column itself and compacts the nonzero terms, without a branch on
// any coefficient, into a 32-entry buffer in its frame (coefficient at
// 0(SP), row pointer at 256(SP); never zeroed: only the entries below
// the count are read). Each full buffer, and the last part one, is
// flushed as passes over d — four terms a pass while four are left,
// then one — so d is loaded and stored once per four terms. A pass
// walks d and its rows of b by pointer, 8, 4, then 1 column a step,
// with no indexed memory operand (on the 2-vCPU Xeon benchmark host
// the 8-wide step ran 8.5 cycles by pointer, 10.8 indexed, alone).
//
// The +0 start is the load itself: every pass ANDs what it loads from
// d with Y11, which is all zeros until the row's first pass ends and
// all ones after it, so d's previous contents never reach the result
// and MatMul does not clear dst first. A row with no nonzero term is
// stored as +0 at the end.
TEXT ·accumRowAVX2(SB), NOSPLIT, $528-56
	MOVQ   d+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVQ   b+16(FP), SI
	MOVQ   cols+24(FP), AX
	SHLQ   $3, AX
	MOVQ   AX, 520(SP)        // step from one row of b to the next, in bytes
	MOVQ   coef+32(FP), R13
	MOVQ   stride+40(FP), AX
	SHLQ   $3, AX
	MOVQ   AX, 512(SP)        // and from one coefficient to the next
	MOVQ   terms+48(FP), R14  // terms not yet read
	VXORPD Y11, Y11, Y11      // the load mask: the row starts at +0

chunk:
	XORQ R10, R10             // R10 = entries in the buffer
	MOVQ 512(SP), R12         // the two steps, which the flush clobbers
	MOVQ 520(SP), R8

gather:
	MOVQ    $32, BX
	SUBQ    R10, BX
	CMPQ    R14, BX
	CMOVQLT R14, BX           // BX = min(room left, terms left)
	SUBQ    BX, R14
	TESTQ   BX, BX
	JZ      flush

gatherloop:
	MOVQ  (R13), AX
	MOVQ  AX, 0(SP)(R10*8)
	MOVQ  SI, 256(SP)(R10*8)
	SHLQ  $1, AX              // drop the sign: zero exactly for ±0
	NEGQ  AX                  // CF = AX != 0
	ADCQ  $0, R10             // keep the entry unless the coefficient is ±0
	ADDQ  R12, R13
	ADDQ  R8, SI
	DECQ  BX
	JNZ   gatherloop
	TESTQ R14, R14
	JZ    flush
	CMPQ  R10, $32
	JLT   gather

flush:
	XORQ R9, R9               // R9 = next buffer entry to add

quad:
	LEAQ         4(R9), AX
	CMPQ         AX, R10
	JGT          single
	MOVQ         256(SP)(R9*8), AX   // the four rows of b
	MOVQ         264(SP)(R9*8), R8
	MOVQ         272(SP)(R9*8), R11
	MOVQ         280(SP)(R9*8), R12
	VBROADCASTSD 0(SP)(R9*8), Y12    // and their coefficients
	VBROADCASTSD 8(SP)(R9*8), Y13
	VBROADCASTSD 16(SP)(R9*8), Y14
	VBROADCASTSD 24(SP)(R9*8), Y15
	MOVQ         DI, DX              // DX walks d, the row pointers with it
	MOVQ         CX, BX
	ANDQ         $-8, BX
	LEAQ         (DI)(BX*8), BX      // where the 8-wide steps end
	CMPQ         DX, BX
	JEQ          quad4

quad8:
	VANDPD  (DX), Y11, Y0
	VANDPD  32(DX), Y11, Y1
	VMULPD  (AX), Y12, Y2
	VMULPD  32(AX), Y12, Y3
	VMULPD  (R8), Y13, Y4
	VMULPD  32(R8), Y13, Y5
	VMULPD  (R11), Y14, Y6
	VMULPD  32(R11), Y14, Y7
	VMULPD  (R12), Y15, Y8
	VMULPD  32(R12), Y15, Y9
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y0, Y0
	VADDPD  Y7, Y1, Y1
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	ADDQ    $64, AX
	ADDQ    $64, R8
	ADDQ    $64, R11
	ADDQ    $64, R12
	CMPQ    DX, BX
	JNE     quad8

quad4:
	TESTQ   $4, CX
	JZ      quadtail
	VANDPD  (DX), Y11, Y0
	VMULPD  (AX), Y12, Y2
	VMULPD  (R8), Y13, Y4
	VMULPD  (R11), Y14, Y6
	VMULPD  (R12), Y15, Y8
	VADDPD  Y2, Y0, Y0
	VADDPD  Y4, Y0, Y0
	VADDPD  Y6, Y0, Y0
	VADDPD  Y8, Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	ADDQ    $32, AX
	ADDQ    $32, R8
	ADDQ    $32, R11
	ADDQ    $32, R12

quadtail:
	LEAQ   (DI)(CX*8), BX     // the end of the row

quad1:
	CMPQ   DX, BX
	JEQ    quaddone
	VMOVSD (DX), X0
	VANDPD X11, X0, X0
	VMULSD (AX), X12, X2
	VMULSD (R8), X13, X4
	VMULSD (R11), X14, X6
	VMULSD (R12), X15, X8
	VADDSD X2, X0, X0
	VADDSD X4, X0, X0
	VADDSD X6, X0, X0
	VADDSD X8, X0, X0
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	ADDQ   $8, AX
	ADDQ   $8, R8
	ADDQ   $8, R11
	ADDQ   $8, R12
	JMP    quad1

quaddone:
	VPCMPEQQ Y11, Y11, Y11    // every later pass adds onto d
	ADDQ     $4, R9
	JMP      quad

single:
	CMPQ         R9, R10
	JGE          flushed
	MOVQ         256(SP)(R9*8), AX
	VBROADCASTSD 0(SP)(R9*8), Y12
	MOVQ         DI, DX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	LEAQ         (DI)(BX*8), BX
	CMPQ         DX, BX
	JEQ          single4

single8:
	VANDPD  (DX), Y11, Y0
	VANDPD  32(DX), Y11, Y1
	VMULPD  (AX), Y12, Y2
	VMULPD  32(AX), Y12, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DX
	ADDQ    $64, AX
	CMPQ    DX, BX
	JNE     single8

single4:
	TESTQ   $4, CX
	JZ      singletail
	VANDPD  (DX), Y11, Y0
	VMULPD  (AX), Y12, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	ADDQ    $32, AX

singletail:
	LEAQ   (DI)(CX*8), BX

single1:
	CMPQ   DX, BX
	JEQ    singledone
	VMOVSD (DX), X0
	VANDPD X11, X0, X0
	VMULSD (AX), X12, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	ADDQ   $8, AX
	JMP    single1

singledone:
	VPCMPEQQ Y11, Y11, Y11
	INCQ     R9
	JMP      single

flushed:
	TESTQ  R14, R14
	JNZ    chunk
	VPTEST Y11, Y11
	JNZ    done

	// No term was nonzero: store +0 (Y11 is still zero).
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-4, BX

zero4:
	CMPQ    DX, BX
	JGE     zerotail
	VMOVUPD Y11, (DI)(DX*8)
	ADDQ    $4, DX
	JMP     zero4

zerotail:
	CMPQ   DX, CX
	JGE    done
	VMOVSD X11, (DI)(DX*8)
	INCQ   DX
	JMP    zerotail

done:
	VZEROUPPER
	RET
