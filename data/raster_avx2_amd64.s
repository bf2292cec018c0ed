//go:build amd64

#include "textflag.h"

// AVX2 kernel of Render's pass 1, dispatched by raster_amd64.go.
//
// Lanes run across pixels, never across strokes: lane j holds one
// pixel, and every pixel sees exactly the operations of Render's Go
// loop — each rounded multiply a VMULPD, each add or subtract a
// VADDPD / VSUBPD, the quotient a VDIVPD, each branch a compare and a
// blend or a min whose operand order is the branch's. Nothing is fused
// and pixels never meet, so the image is the Go loop's bit for bit
// (TestRenderMatchesReference).

// func strokeAVX2(row *float64, size int, centres, cx *float64, n int, wxvx, wx2, ex2 *float64, geom *[6]float64)
//
// Pass 1 for one stroke, geom = {x1, y1, vx, vy, len2, ey}, over the n
// > 0 columns whose centres are cx[:n] and whose per-column terms wxvx,
// wx2, ex2 the caller has formed, in every row py < size:
// row[py·size + j] = min(row[py·size + j], d2), where d2 is the squared
// distance from (cx[j], centres[py]) to the stroke. All three of the
// switch's candidates are formed on every lane and blended in its case
// order — the last blend, num ≤ 0, wins — and VMINPD(d2, row) keeps row
// unless d2 < row, as the Go loop's `if d2 < row[j]` does. The n mod 4
// tail of each row runs the same operations on scalars.
TEXT ·strokeAVX2(SB), NOSPLIT, $0-72
	MOVQ         row+0(FP), DI
	MOVQ         size+8(FP), CX
	MOVQ         centres+16(FP), SI
	MOVQ         cx+24(FP), R8
	MOVQ         n+32(FP), BX
	MOVQ         wxvx+40(FP), R9
	MOVQ         wx2+48(FP), R10
	MOVQ         ex2+56(FP), R11
	MOVQ         geom+64(FP), AX
	VBROADCASTSD 0(AX), Y8            // x1
	VBROADCASTSD 8(AX), Y9            // y1
	VBROADCASTSD 16(AX), Y10          // vx
	VBROADCASTSD 24(AX), Y11          // vy
	VBROADCASTSD 32(AX), Y12          // len2
	VBROADCASTSD 40(AX), Y13          // ey
	VXORPD       Y14, Y14, Y14        // +0
	MOVQ         BX, AX
	ANDQ         $-4, AX              // columns in whole vectors
	MOVQ         CX, R12
	SHLQ         $3, R12              // row stride in bytes
	XORQ         R13, R13

row:
	// wy := cy − y1; wyvy, wy2 := wy·vy, wy·wy; ey2 := (cy − ey)·(cy − ey)
	VMOVSD       (SI)(R13*8), X0
	VSUBSD       X9, X0, X1
	VMULSD       X11, X1, X2
	VMULSD       X1, X1, X3
	VSUBSD       X13, X0, X4
	VMULSD       X4, X4, X4
	VBROADCASTSD X0, Y0               // cy
	VBROADCASTSD X2, Y2               // wyvy
	VBROADCASTSD X3, Y3               // wy2
	VBROADCASTSD X4, Y4               // ey2
	XORQ         DX, DX
	CMPQ         DX, AX
	JGE          tail

col:
	// num := wxvx + wyvy; default: t := num/len2,
	// d2 = (cx − (x1 + t·vx))² + (cy − (y1 + t·vy))²
	VADDPD  (R9)(DX*8), Y2, Y5
	VDIVPD  Y12, Y5, Y6
	VMULPD  Y10, Y6, Y7
	VADDPD  Y8, Y7, Y7
	VMOVUPD (R8)(DX*8), Y15
	VSUBPD  Y7, Y15, Y7
	VMULPD  Y11, Y6, Y6
	VADDPD  Y9, Y6, Y6
	VSUBPD  Y6, Y0, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y7, Y7

	// case num >= len2: d2 = ex2 + ey2
	VADDPD    (R11)(DX*8), Y4, Y6
	VCMPPD    $0x0d, Y12, Y5, Y15
	VBLENDVPD Y15, Y6, Y7, Y7

	// case num <= 0: d2 = wx2 + wy2
	VADDPD    (R10)(DX*8), Y3, Y6
	VCMPPD    $0x02, Y14, Y5, Y15
	VBLENDVPD Y15, Y6, Y7, Y7

	VMINPD  (DI)(DX*8), Y7, Y7
	VMOVUPD Y7, (DI)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, AX
	JLT     col

tail:
	CMPQ      DX, BX
	JGE       next
	VMOVSD    (R9)(DX*8), X5
	VADDSD    X5, X2, X5
	VDIVSD    X12, X5, X6
	VMULSD    X10, X6, X7
	VADDSD    X8, X7, X7
	VMOVSD    (R8)(DX*8), X15
	VSUBSD    X7, X15, X7
	VMULSD    X11, X6, X6
	VADDSD    X9, X6, X6
	VSUBSD    X6, X0, X6
	VMULSD    X7, X7, X7
	VMULSD    X6, X6, X6
	VADDSD    X6, X7, X7
	VMOVSD    (R11)(DX*8), X6
	VADDSD    X6, X4, X6
	VCMPSD    $0x0d, X12, X5, X15
	VBLENDVPD X15, X6, X7, X7
	VMOVSD    (R10)(DX*8), X6
	VADDSD    X6, X3, X6
	VCMPSD    $0x02, X14, X5, X15
	VBLENDVPD X15, X6, X7, X7
	VMOVSD    (DI)(DX*8), X6
	VMINSD    X6, X7, X7
	VMOVSD    X7, (DI)(DX*8)
	INCQ      DX
	JMP       tail

next:
	ADDQ R12, DI
	INCQ R13
	CMPQ R13, CX
	JLT  row
	VZEROUPPER
	RET
