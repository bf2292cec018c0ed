//go:build amd64

#include "textflag.h"

// AVX2 kernel of the coordinate-wise median — the TierAVX2
// implementation behind MedianLanes, dispatched by lanes_amd64.go.
//
// Lanes run across columns j, four to a vector, and read each row's
// v[j:j+4] in place. No column is gathered and nothing is sorted: every
// row i gets its stable rank in the column,
//
//	r_i = #{k < i : v_k ≤ v_i} + #{k > i : v_k < v_i},
//
// the index insertion sort moves v_i to (equal values — +0 and −0 —
// keep their row order), one VCMPPD and one VPSUBQ per pair. The ranks
// are a permutation of 0..n-1, so OR-ing together the rows masked by
// r_i == (n-1)/2 and by r_i == n/2 picks sorted[(n-1)/2] and
// sorted[n/2] exactly, whichever zero that is. Only comparisons, masks
// and the scalar code's final 0.5·(lo + hi) touch the values, so the
// result is the sorted column's median bit for bit and belongs to no
// accumulation-order family. A column holding a NaN (where ≤ and <
// are not the NaN-first order) is found by an UNORD screen of each row
// as it is loaded, and its lane is written as all ones — a NaN — for
// the caller to redo on its scalar path.
//
// Every instruction touching X/Y registers is VEX-encoded: one legacy
// SSE instruction while the upper halves are dirty costs a state
// transition far dearer than the whole loop (TestAVX2KernelsStayVEX).

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

// LOADROW loads the block of the row whose slice header sits at
// R8 + off into y and ORs its UNORD screen into Y12.
#define LOADROW(off, y) \
	MOVQ    off(SI)(R8*1), R10; \
	VMOVUPD (R10)(DX*8), y;     \
	VCMPPD  $3, y, y, Y9;       \
	VORPD   Y9, Y12, Y12

// RANK subtracts from rank r the mask of v pred Y8 (pred 0x1d is GE_OQ
// for a row k before v's, 0x1e GT_OQ for one after).
#define RANK(pred, v, r) \
	VCMPPD $pred, Y8, v, Y9; \
	VPSUBQ Y9, r, r

// CROSS ranks rows a < b of one group against each other.
#define CROSS(va, ra, vb, rb) \
	VCMPPD $0x1d, va, vb, Y9; \
	VPSUBQ Y9, rb, rb;        \
	VCMPPD $0x1e, vb, va, Y9; \
	VPSUBQ Y9, ra, ra

// PICK ORs v into the low median Y10 where rank r is (n-1)/2 and into
// the high one Y11 where it is n/2.
#define PICK(v, r) \
	VPCMPEQQ Y13, r, Y9; \
	VANDPD   v, Y9, Y9;  \
	VORPD    Y9, Y10, Y10; \
	VPCMPEQQ Y14, r, Y9; \
	VANDPD   v, Y9, Y9;  \
	VORPD    Y9, Y11, Y11

// func medianAVX2(dst *float64, rows *[]float64, n, blocks int)
//
// dst[j] = the median of column j of the n rows, for j < 4·blocks
// (rows points at n slice headers, 24 bytes apart), or all ones where
// the column holds a NaN. Rows are ranked four at a time, so each row k
// loaded serves four comparisons; the n mod 4 rows left over are
// ranked one at a time.
TEXT ·medianAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         rows+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         blocks+24(FP), BX
	SHLQ         $2, BX           // BX = 4·blocks, the end column
	XORQ         DX, DX           // DX = j
	LEAQ         -1(CX), AX
	SHRQ         $1, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13         // Y13 = (n-1)/2, the low median's rank
	MOVQ         CX, AX
	SHRQ         $1, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14         // Y14 = n/2, the high median's rank
	VBROADCASTSD half<>(SB), Y15
	LEAQ         (CX)(CX*2), R13
	SHLQ         $3, R13          // R13 = 24·n, the end of the headers
	MOVQ         CX, R12
	ANDQ         $-4, R12
	LEAQ         (R12)(R12*2), R12
	SHLQ         $3, R12          // R12 = 24·(n &^ 3), the end of the groups

block:
	CMPQ   DX, BX
	JGE    done
	VXORPD Y10, Y10, Y10          // low median
	VXORPD Y11, Y11, Y11          // high median
	VXORPD Y12, Y12, Y12          // UNORD screen
	XORQ   R8, R8                 // R8 = 24·i, the group's first row
	CMPQ   R8, R12
	JGE    single

group:
	LOADROW(0, Y0)
	LOADROW(24, Y1)
	LOADROW(48, Y2)
	LOADROW(72, Y3)
	VPXOR Y4, Y4, Y4              // their ranks
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  R9, R9                  // R9 = 24·k
	CMPQ  R9, R8
	JGE   groupcross

groupbefore:
	MOVQ    (SI)(R9*1), R10
	VMOVUPD (R10)(DX*8), Y8
	RANK(0x1d, Y0, Y4)
	RANK(0x1d, Y1, Y5)
	RANK(0x1d, Y2, Y6)
	RANK(0x1d, Y3, Y7)
	ADDQ    $24, R9
	CMPQ    R9, R8
	JLT     groupbefore

groupcross:
	CROSS(Y0, Y4, Y1, Y5)
	CROSS(Y0, Y4, Y2, Y6)
	CROSS(Y0, Y4, Y3, Y7)
	CROSS(Y1, Y5, Y2, Y6)
	CROSS(Y1, Y5, Y3, Y7)
	CROSS(Y2, Y6, Y3, Y7)
	ADDQ $96, R9
	CMPQ R9, R13
	JGE  grouppick

groupafter:
	MOVQ    (SI)(R9*1), R10
	VMOVUPD (R10)(DX*8), Y8
	RANK(0x1e, Y0, Y4)
	RANK(0x1e, Y1, Y5)
	RANK(0x1e, Y2, Y6)
	RANK(0x1e, Y3, Y7)
	ADDQ    $24, R9
	CMPQ    R9, R13
	JLT     groupafter

grouppick:
	PICK(Y0, Y4)
	PICK(Y1, Y5)
	PICK(Y2, Y6)
	PICK(Y3, Y7)
	ADDQ $96, R8
	CMPQ R8, R12
	JLT  group

single:
	CMPQ R8, R13
	JGE  finish
	LOADROW(0, Y0)
	VPXOR Y4, Y4, Y4
	XORQ  R9, R9

singlebefore:
	CMPQ    R9, R8
	JGE     singleafter
	MOVQ    (SI)(R9*1), R10
	VMOVUPD (R10)(DX*8), Y8
	RANK(0x1d, Y0, Y4)
	ADDQ    $24, R9
	JMP     singlebefore

singleafter:
	ADDQ $24, R9                  // skip k = i

singleafterloop:
	CMPQ    R9, R13
	JGE     singlepick
	MOVQ    (SI)(R9*1), R10
	VMOVUPD (R10)(DX*8), Y8
	RANK(0x1e, Y0, Y4)
	ADDQ    $24, R9
	JMP     singleafterloop

singlepick:
	PICK(Y0, Y4)
	ADDQ $24, R8
	JMP  single

finish:
	TESTQ     $1, CX
	JNZ       store
	VADDPD    Y11, Y10, Y11       // even n: 0.5·(lo + hi)
	VMULPD    Y15, Y11, Y11

store:
	VORPD   Y12, Y11, Y11         // a NaN column's lane: all ones
	VMOVUPD Y11, (DI)(DX*8)
	ADDQ    $4, DX
	JMP     block

done:
	VZEROUPPER
	RET
