//go:build amd64

#include "textflag.h"

// The AVX2 Box–Muller kernel behind FillNormal, dispatched by
// lanes_amd64.go.
//
// Lanes run across samples: lane p of a vector holds pair p, and every
// lane performs exactly the scalar operation sequence NormFloat64's
// math.Log (log_amd64.s), math.Sqrt and math.Sincos (sincos.go)
// perform on one pair — each rounded multiply a VMULPD, each rounded add
// a VADDPD / VSUBPD, each quotient a VDIVPD, each branch a mask and a
// blend. Nothing is fused and nothing crosses lanes, so every variate
// is the scalar one bit for bit (TestBoxMullerLanesMatchMath); an FMA
// anywhere here would move result bytes (TestLaneKernelsUnfused).
//
// The inputs are Float64 draws: u in (0, 1) on the 2⁻⁵³ grid, so u is
// normal, finite and positive and archLog's special cases never apply;
// v in [0, 1), so 2π·v is finite, non-negative and far below Sincos's
// Payne–Hanek threshold, and Sincos(+0) = (+0, 1) is what the
// polynomials give anyway.

// C4 defines sym<> as four copies of one 64-bit pattern: a constant a
// YMM instruction can take as its memory operand.
#define C4(sym, bits) \
	DATA sym<>+0(SB)/8, $bits; \
	DATA sym<>+8(SB)/8, $bits; \
	DATA sym<>+16(SB)/8, $bits; \
	DATA sym<>+24(SB)/8, $bits; \
	GLOBL sym<>(SB), RODATA|NOPTR, $32

C4(bmMant, 0x000fffffffffffff)   // mantissa bits
C4(bmHalf, 0x3fe0000000000000)   // 0.5
C4(bmOne, 0x3ff0000000000000)    // 1
C4(bmTwo, 0x4000000000000000)    // 2
C4(bmMinusTwo, 0xc000000000000000) // -2
C4(bmMagic, 0x4330000000000000)  // 2⁵²: an integer below 2⁵² in the low bits
C4(bmMagicK, 0x43300000000003fe) // 2⁵² + 1022: the exponent bias of frexp
C4(bmHSqrt2, 0x3fe6a09e667f3bcd) // √2/2
C4(bmLn2Hi, 0x3fe62e42fee00000)
C4(bmLn2Lo, 0x3dea39ef35793c76)
C4(bmL1, 0x3fe5555555555593)
C4(bmL2, 0x3fd999999997fa04)
C4(bmL3, 0x3fd2492494229359)
C4(bmL4, 0x3fcc71c51d8e78af)
C4(bmL5, 0x3fc7466496cb03de)
C4(bmL6, 0x3fc39a09d078c69f)
C4(bmL7, 0x3fc2f112df3e5244)
C4(bm2Pi, 0x401921fb54442d18)    // float64(2π)
C4(bm4OverPi, 0x3ff45f306dc9c883) // float64(4/π)
C4(bmPI4A, 0x3fe921fb40000000)
C4(bmPI4B, 0x3e64442d00000000)
C4(bmPI4C, 0x3ce8469898cc5170)
C4(bmIntOne, 0x0000000000000001)
C4(bmIntNotOne, 0xfffffffffffffffe)
C4(bmSign, 0x8000000000000000)
C4(bmCos0, 0xbda8fa49a0861a9b)
C4(bmCos1, 0x3e21ee9d7b4e3f05)
C4(bmCos2, 0xbe927e4f7eac4bc6)
C4(bmCos3, 0x3efa01a019c844f5)
C4(bmCos4, 0xbf56c16c16c14f91)
C4(bmCos5, 0x3fa555555555554b)
C4(bmSin0, 0x3de5d8fd1fd19ccd)
C4(bmSin1, 0xbe5ae5e5a9291f5d)
C4(bmSin2, 0x3ec71de3567d48a1)
C4(bmSin3, 0xbf2a01a019bfdf03)
C4(bmSin4, 0x3f8111111110f7d0)
C4(bmSin5, 0xbfc5555555555548)

// func boxMullerAVX2(u, v, c, s *float64, n int)
//
// For p < n, n a multiple of four:
//
//	radius := math.Sqrt(-2 * math.Log(u[p]))
//	sin, cos := math.Sincos(2 * math.Pi * v[p])
//	c[p], s[p] = radius*cos, radius*sin
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-40
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), R8
	MOVQ c+16(FP), DI
	MOVQ s+24(FP), R9
	MOVQ n+32(FP), CX
	XORQ DX, DX
	CMPQ DX, CX
	JGE  done

loop:
	// f1, k := frexp(u), by masks: f1 takes u's mantissa under 0.5's
	// exponent, k = e − 1022 goes through 2⁵² + e (exact).
	VMOVUPD (SI)(DX*8), Y0
	VANDPD  bmMant<>(SB), Y0, Y2
	VORPD   bmHalf<>(SB), Y2, Y2
	VPSRLQ  $52, Y0, Y1
	VPOR    bmMagic<>(SB), Y1, Y1
	VSUBPD  bmMagicK<>(SB), Y1, Y1

	// if f1 ≤ √2/2 { k -= 1; f1 *= 2 } — log_amd64.s's CMPSD NLT
	VCMPPD $2, bmHSqrt2<>(SB), Y2, Y3
	VANDPD bmOne<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD bmOne<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2

	// f := f1 − 1; s := f/(2 + f); s2 := s·s; s4 := s2·s2
	VSUBPD bmOne<>(SB), Y2, Y2
	VADDPD bmTwo<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD bmL7<>(SB), Y5, Y6
	VADDPD bmL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMULPD bmL6<>(SB), Y5, Y6
	VADDPD bmL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD bmL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5·f·f
	VMULPD bmHalf<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0

	// log u = k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD bmLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD bmLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1

	// radius := √(−2·log u)
	VMULPD  bmMinusTwo<>(SB), Y1, Y1
	VSQRTPD Y1, Y15

	// x := 2π·v; j := uint64(x·(4/π)), odd j rounded up to even, held
	// as 2⁵² + j; y := float64(j)
	VMOVUPD  (R8)(DX*8), Y0
	VMULPD   bm2Pi<>(SB), Y0, Y0
	VMULPD   bm4OverPi<>(SB), Y0, Y1
	VROUNDPD $3, Y1, Y1
	VADDPD   bmMagic<>(SB), Y1, Y1
	VPADDQ   bmIntOne<>(SB), Y1, Y1
	VPAND    bmIntNotOne<>(SB), Y1, Y1
	VSUBPD   bmMagic<>(SB), Y1, Y2

	// z := ((x − y·PI4A) − y·PI4B) − y·PI4C; zz := z·z
	VMULPD bmPI4A<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD bmPI4B<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD bmPI4C<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD Y0, Y0, Y2

	// cos := 1 − 0.5·zz + zz·zz·(((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5)
	VMULPD  bmCos0<>(SB), Y2, Y3
	VADDPD  bmCos1<>(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  bmCos2<>(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  bmCos3<>(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  bmCos4<>(SB), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  bmCos5<>(SB), Y3, Y3
	VMULPD  Y2, Y2, Y4
	VMULPD  Y3, Y4, Y4
	VMULPD  bmHalf<>(SB), Y2, Y5
	VMOVUPD bmOne<>(SB), Y6
	VSUBPD  Y5, Y6, Y6
	VADDPD  Y4, Y6, Y6

	// sin := z + z·zz·(((((s0·zz + s1)·zz + s2)·zz + s3)·zz + s4)·zz + s5)
	VMULPD bmSin0<>(SB), Y2, Y3
	VADDPD bmSin1<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD bmSin2<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD bmSin3<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD bmSin4<>(SB), Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD bmSin5<>(SB), Y3, Y3
	VMULPD Y2, Y0, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y0, Y0

	// j ∈ {0, 2, 4, 6} mod 8: swap sin and cos when j&2, negate sin
	// when j&4 and cos when (j&4 != 0) != (j&2 != 0) — bits 1 and 2
	// of j shifted into the sign position.
	VPSLLQ    $62, Y1, Y3
	VPSLLQ    $61, Y1, Y4
	VBLENDVPD Y3, Y0, Y6, Y5
	VBLENDVPD Y3, Y6, Y0, Y0
	VXORPD    Y4, Y3, Y3
	VANDPD    bmSign<>(SB), Y3, Y3
	VANDPD    bmSign<>(SB), Y4, Y4
	VXORPD    Y3, Y5, Y5
	VXORPD    Y4, Y0, Y0

	// c, s = radius·cos, radius·sin
	VMULPD  Y15, Y5, Y5
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y5, (DI)(DX*8)
	VMOVUPD Y0, (R9)(DX*8)
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     loop

done:
	VZEROUPPER
	RET
