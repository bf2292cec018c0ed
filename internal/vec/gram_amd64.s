//go:build amd64

#include "textflag.h"

// SSE2 Gram microkernels. Both tiles keep ONE [even, odd] accumulator
// pair per inner product (the two lanes of an XMM register; an
// odd-length remainder joins the even, low, lane), reduced low+high at
// the end — the pair2 lane order, so the assembly and the pure-Go tiles
// agree bit for bit on every input (see gram.go for the contract;
// gram_test.go pins every column to the order's definition in
// spec_test.go). The speed comes from dot4SSE2's four
// independent column chains: one 128-bit load of a[k:k+2] feeds four
// MULPD/ADDPD pairs, where the scalar loop was bound by its single
// add-latency chain.

// func dot4SSE2(a, b0, b1, b2, b3 *float64, n int, out *[4]float64)
TEXT ·dot4SSE2(SB), NOSPLIT, $0-56
	MOVQ  a+0(FP), SI
	MOVQ  b0+8(FP), R8
	MOVQ  b1+16(FP), R9
	MOVQ  b2+24(FP), R10
	MOVQ  b3+32(FP), R11
	MOVQ  n+40(FP), CX
	MOVQ  out+48(FP), BX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  DX, DX
	MOVQ  CX, AX
	ANDQ  $-2, AX
	CMPQ  DX, AX
	JGE   tail4
loop4:
	MOVUPD (SI)(DX*8), X4
	MOVUPD (R8)(DX*8), X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVUPD (R9)(DX*8), X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVUPD (R10)(DX*8), X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVUPD (R11)(DX*8), X8
	MULPD  X4, X8
	ADDPD  X8, X3
	ADDQ   $2, DX
	CMPQ   DX, AX
	JLT    loop4
tail4:
	CMPQ DX, CX
	JGE  reduce4
	MOVSD (SI)(DX*8), X4
	MOVSD (R8)(DX*8), X5
	MULSD X4, X5
	ADDSD X5, X0
	MOVSD (R9)(DX*8), X6
	MULSD X4, X6
	ADDSD X6, X1
	MOVSD (R10)(DX*8), X7
	MULSD X4, X7
	ADDSD X7, X2
	MOVSD (R11)(DX*8), X8
	MULSD X4, X8
	ADDSD X8, X3
reduce4:
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

// func dot24SSE2(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)
//
// The 2×4 tile: accumulators X0..X3 hold a0 against b0..b3, X4..X7
// hold a1 against b0..b3; every streamed 128-bit column load is reused
// by both rows, which is where the tile's bandwidth saving comes from.
TEXT ·dot24SSE2(SB), NOSPLIT, $0-64
	MOVQ  a0+0(FP), SI
	MOVQ  a1+8(FP), DI
	MOVQ  b0+16(FP), R8
	MOVQ  b1+24(FP), R9
	MOVQ  b2+32(FP), R10
	MOVQ  b3+40(FP), R11
	MOVQ  n+48(FP), CX
	MOVQ  out+56(FP), BX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  DX, DX
	MOVQ  CX, AX
	ANDQ  $-2, AX
	CMPQ  DX, AX
	JGE   tail24
loop24:
	MOVUPD (SI)(DX*8), X8
	MOVUPD (DI)(DX*8), X9
	MOVUPD (R8)(DX*8), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	ADDPD  X10, X0
	MULPD  X9, X11
	ADDPD  X11, X4
	MOVUPD (R9)(DX*8), X12
	MOVAPD X12, X13
	MULPD  X8, X12
	ADDPD  X12, X1
	MULPD  X9, X13
	ADDPD  X13, X5
	MOVUPD (R10)(DX*8), X14
	MOVAPD X14, X15
	MULPD  X8, X14
	ADDPD  X14, X2
	MULPD  X9, X15
	ADDPD  X15, X6
	MOVUPD (R11)(DX*8), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	ADDPD  X10, X3
	MULPD  X9, X11
	ADDPD  X11, X7
	ADDQ   $2, DX
	CMPQ   DX, AX
	JLT    loop24
tail24:
	CMPQ DX, CX
	JGE  reduce24
	MOVSD (SI)(DX*8), X8
	MOVSD (DI)(DX*8), X9
	MOVSD (R8)(DX*8), X10
	MOVAPD X10, X11
	MULSD X8, X10
	ADDSD X10, X0
	MULSD X9, X11
	ADDSD X11, X4
	MOVSD (R9)(DX*8), X12
	MOVAPD X12, X13
	MULSD X8, X12
	ADDSD X12, X1
	MULSD X9, X13
	ADDSD X13, X5
	MOVSD (R10)(DX*8), X14
	MOVAPD X14, X15
	MULSD X8, X14
	ADDSD X14, X2
	MULSD X9, X15
	ADDSD X15, X6
	MOVSD (R11)(DX*8), X10
	MOVAPD X10, X11
	MULSD X8, X10
	ADDSD X10, X3
	MULSD X9, X11
	ADDSD X11, X7
reduce24:
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
