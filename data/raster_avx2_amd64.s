//go:build amd64

#include "textflag.h"

// AVX2 kernels of Render's passes 1 and 2, dispatched by
// raster_amd64.go.
//
// Lanes run across pixels, never across strokes: lane j holds one
// pixel, and every pixel sees exactly the operations of Render's Go
// loops — each rounded multiply a VMULPD, each add or subtract a
// VADDPD / VSUBPD, the quotient a VDIVPD, the root a VSQRTPD, each
// branch a compare and a blend or a min whose operand order is the
// branch's, each math.FMA of vec.Exp a fused op. Nothing else is fused
// (TestLaneKernelsUnfused) and pixels never meet, so the image is the
// Go loops' bit for bit (TestRenderMatchesReference,
// TestIntensityMatchesExp).

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

// C4 defines sym<> as four copies of one 64-bit pattern: a constant a
// YMM instruction can take as its memory operand.
#define C4(sym, bits) \
	DATA sym<>+0(SB)/8, $bits; \
	DATA sym<>+8(SB)/8, $bits; \
	DATA sym<>+16(SB)/8, $bits; \
	DATA sym<>+24(SB)/8, $bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

C4(exSign, 0x8000000000000000)
C4(exLog2e, 0x3ff71547652b82fe)
C4(exLn2U, 0x3fe62e42fefa3000)
C4(exLn2L, 0x3d53de6af278ece6)
C4(exSixteenth, 0x3fb0000000000000) // 0.0625
C4(exC8, 0x3efa01a01a01a01a)        // 1/8!
C4(exC7, 0x3f2a01a01a01a01a)        // 1/7!
C4(exC6, 0x3f56c16c16c16c17)        // 1/6!
C4(exC5, 0x3f81111111111111)        // 1/5!
C4(exC4, 0x3fa5555555555555)        // 1/4!
C4(exC3, 0x3fc5555555555555)        // 1/3!
C4(exHalf, 0x3fe0000000000000)
C4(exOne, 0x3ff0000000000000)
C4(exTwo, 0x4000000000000000)
C4(exMinus1023, 0xc08ff80000000000) // -1023: k ≤ -1023 is a subnormal result
C4(exMinus1075, 0xc090cc0000000000) // -1075: k < -1075 is 0
C4(exTiny, 0x0010000000000000)      // 2⁻¹⁰²²
C4(exBias, 0x00000000000003ff)      // int64 1023
C4(exBias1, 0x00000000000003fe)     // int64 1022

// func intensityAVX2(img *float64, n int, thickness, soft float64)
//
// Pass 2 of Render over img[:n], n a multiple of four: each squared
// distance d2 becomes 1 where d = √d2 ≤ thickness and vec.Exp(−t·t),
// t = (d − thickness)/soft, elsewhere. The exp block is vec.Exp's
// sequence (internal/vec/exp.go) in lanes, one fused op per math.FMA
// there and no other: both are correctly rounded, so each lane is
// vec.Exp's bits. Its special cases need no code: d2 is a squared
// distance, never NaN, and x = −t·t is never positive, so k ≤ 0 and
// the result never overflows; VROUNDPD $0
// rounds half to even as CVTSD2SL does, and where k leaves int32 range
// (x = −Inf, from d2 = +Inf) the lane is zeroed with every k < −1075.
TEXT ·intensityAVX2(SB), NOSPLIT, $0-32
	MOVQ         img+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD thickness+16(FP), Y15
	VBROADCASTSD soft+24(FP), Y14
	VMOVUPD      exOne<>(SB), Y13
	LEAQ         (DI)(CX*8), CX // end of img[:n]
	CMPQ         DI, CX
	JGE          done

pixel:
	// d := √d2; x := −t·t, t = (d − thickness)/soft; k := round(x·log₂e)
	VSQRTPD  (DI), Y0
	VSUBPD   Y15, Y0, Y1
	VDIVPD   Y14, Y1, Y1
	VMULPD   Y1, Y1, Y1
	VXORPD   exSign<>(SB), Y1, Y1
	VMULPD   exLog2e<>(SB), Y1, Y2
	VROUNDPD $0, Y2, Y2

	// exp: begin — r := x − k·ln2, then the polynomial and squarings
	VFNMADD231PD exLn2U<>(SB), Y2, Y1
	VFNMADD231PD exLn2L<>(SB), Y2, Y1
	VMULPD       exSixteenth<>(SB), Y1, Y1
	VMOVUPD      exC8<>(SB), Y3
	VFMADD213PD  exC7<>(SB), Y1, Y3
	VFMADD213PD  exC6<>(SB), Y1, Y3
	VFMADD213PD  exC5<>(SB), Y1, Y3
	VFMADD213PD  exC4<>(SB), Y1, Y3
	VFMADD213PD  exC3<>(SB), Y1, Y3
	VFMADD213PD  exHalf<>(SB), Y1, Y3
	VFMADD213PD  Y13, Y1, Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       exTwo<>(SB), Y1, Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       exTwo<>(SB), Y1, Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       exTwo<>(SB), Y1, Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       exTwo<>(SB), Y1, Y3
	VFMADD213PD  Y13, Y3, Y1
	// exp: end

	// fr·2**k: by 2**k where k > −1023, by 2**(k+1022) and then 2⁻¹⁰²²
	// where k ≤ −1023; 0 where k < −1075.
	VCVTPD2DQY Y2, X4
	VPMOVSXDQ  X4, Y4
	VPADDQ     exBias<>(SB), Y4, Y4
	VCMPPD     $0x02, exMinus1023<>(SB), Y2, Y5
	VPAND      exBias1<>(SB), Y5, Y6
	VPADDQ     Y6, Y4, Y4
	VPSLLQ     $52, Y4, Y4
	VMULPD     Y4, Y1, Y1
	VBLENDVPD  Y5, exTiny<>(SB), Y13, Y6
	VMULPD     Y6, Y1, Y1
	VCMPPD     $0x01, exMinus1075<>(SB), Y2, Y5
	VANDNPD    Y1, Y5, Y1

	// d ≤ thickness: 1
	VCMPPD    $0x02, Y15, Y0, Y5
	VBLENDVPD Y5, Y13, Y1, Y1
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	CMPQ      DI, CX
	JLT       pixel

done:
	VZEROUPPER
	RET
