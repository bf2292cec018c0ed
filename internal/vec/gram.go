package vec

// This file holds the blocked Gram-trick microkernels behind
// DistanceMatrix: every pairwise squared distance is assembled as
//
//	‖a−b‖² = ‖a‖² + ‖b‖² − 2·⟨a,b⟩
//
// so the O(n²·d) work collapses into inner products, which vectorize
// far better than the per-pair subtract-square loop (no serial
// dependency on a single accumulator, one shared load of a[k] feeding
// four columns).
//
// BIT-STABILITY CONTRACT (per tier — ROADMAP decision (a)): every
// kernel TIER (tier.go) defines its own canonical accumulation order
// for an inner product, and WITHIN a tier every product the walker
// (DistanceMatrix.fill: every build and update, serial or parallel,
// pairs and norms alike) takes from a tile reproduces exactly that
// order. IEEE-754 multiplication is commutative bit for bit and the
// k-order never changes within a tier, so ⟨a,b⟩ is bit-identical
// whichever tile shape, tile column, column panel, goroutine count, or
// tile alignment computes it. This is what lets DistanceMatrix.UpdateRow
// promise results identical to a full rebuild, and the scenario runner
// promise identical results across worker counts — all per tier.
//
// The canonical order has two levels:
//
// DEPTH BLOCKING (both families): an inner product of dimension d is
// accumulated in consecutive k-blocks of gramBlock elements. Each
// block starts its lane accumulators at zero, runs the family's lane
// order below, and reduces; the per-block results are then summed into
// one scalar in ascending-k order. For d ≤ gramBlock this is exactly
// the single-pass order (one block), so the golden vectors and every
// small-dimension result are unchanged by blocking. The block seam is
// what lets DistanceMatrix build depth-first at deep-learning
// dimensions — all n vectors' k-slices stay cache-resident while every
// pair consumes them — without perturbing a single bit: a pair's value
// depends only on the k-sequence its own lanes consume, never on which
// tile or row-set drove the kernel.
//
// LANE ORDER (the order families):
//
//   - "pair2" (TierGo: dot4Go below; TierSSE2: gram_amd64.s): two
//     interleaved partial sums, lane j taking the terms with k ≡ j
//     (mod 2) as a rounded multiply then a rounded add, reduced as
//     s0+s1. The SSE2 assembly's two 64-bit XMM lanes ARE the (s0, s1)
//     pair, so the go and sse2 tiers agree bit for bit on every input.
//   - "fma4" (TierAVX2: gram_avx2_amd64.s): four interleaved partial
//     sums, lane j taking the terms with k ≡ j (mod 4) through fused
//     multiply-adds, reduced as (s0+s2)+(s1+s3) — the four lanes of one
//     YMM accumulator, a masked load feeding the tail lanes (a
//     masked-out lane contributes fma(0, 0, s) = s, bit for bit).
//     Fusing drops the per-term product rounding, so fma4 results
//     differ from pair2 in the low bits.
//
// ACROSS tiers equality is only promised to the norm-relative
// tolerance of dist_property_test.go's error model; anything that
// persists or exchanges result bytes must therefore carry the order
// id (Tier.Order): the scenario store salts keys with it, distsgd
// records it in Result.Kernel, and the fleet join handshake pins it.
//
// The walker composes the tiles across blocks in place; the per-block
// tiles dot4Block and dot24Block dispatch on the active tier
// (gram_amd64.go on amd64, this file's pure-Go pair2 tiles elsewhere).
// The order itself is defined once, as code, in spec_test.go — a lane
// function per family, specDot (the blocked composition) and specCell
// (the clamped Gram identity) — and the tests pin to it by bits every
// tile column of every tier at every tail residue, at multi-block
// dimensions and on fixed golden vectors (gram_test.go), and every cell
// and norm the walker produces (walker_test.go).

// gramBlock is the depth-blocking factor of the canonical accumulation
// order: inner products accumulate in k-blocks of this many elements
// (see the contract above). It is part of the observable order — low
// bits at d > gramBlock depend on it — so changing it is a
// result-changing event exactly like changing a lane order: the order
// family names would need new ids. 2048 doubles (16 KiB per vector
// slice) keeps a 2×4 tile's six operand slices under typical L1/L2
// budgets while amortizing the per-call reduction to noise; it is a
// multiple of 8, so every block starts lane-phase-aligned for both
// families. Tuned on BenchmarkDistanceMatrix at n = 40, d = 10⁴
// against 1024/4096/unblocked.
const gramBlock = 2048

// panelBytes is the walker's column-panel budget: stage keeps the
// k-block slices of one panel of columns — at most this many bytes —
// cache-resident while every row pair streams past them, so the budget
// is sized to sit in a 2 MB L2 beside the streaming rows. Unlike
// gramBlock it needs no order-family id: it decides only WHICH tile
// call produces a cell's product, never the k-sequence that product's
// lanes consume, and by the contract above a cell's bits depend on the
// latter alone — so it can be retuned freely. Measured at n = 1000,
// d = 1000 from 250 KB to 2 MB (EXPERIMENTS.md "Distance build at large
// n: one panel in L2"): flat between 500 KB and 1 MB, slower on either
// side, and 1 MB leaves every shape with n ≤ 64, or n ≤ 128 at
// d ≤ 1024, on a single panel.
const panelBytes = 1 << 20

// dot4Go returns ⟨a,b0⟩, ⟨a,b1⟩, ⟨a,b2⟩, ⟨a,b3⟩ in one pass over a:
// the 1×4 register tile of the blocked kernel, in the pair2 lane order.
// Each load of a[k] feeds four independent multiply-add chains, and
// every column keeps its own even/odd accumulator pair (a tail element
// joins the even one), reduced as even + odd; the two independent
// chains per column break the add-latency dependency that bounds the
// naive loop.
func dot4Go(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	n := len(a)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var p0, q0, p1, q1, p2, q2, p3, q3 float64
	k := 0
	for ; k+2 <= n; k += 2 {
		x, y := a[k], a[k+1]
		p0 += x * b0[k]
		q0 += y * b0[k+1]
		p1 += x * b1[k]
		q1 += y * b1[k+1]
		p2 += x * b2[k]
		q2 += y * b2[k+1]
		p3 += x * b3[k]
		q3 += y * b3[k+1]
	}
	if k < n {
		x := a[k]
		p0 += x * b0[k]
		p1 += x * b1[k]
		p2 += x * b2[k]
		p3 += x * b3[k]
	}
	return p0 + q0, p1 + q1, p2 + q2, p3 + q3
}

// dot24Go is the 2×4 tile: the dots of two row vectors a0, a1 against
// four column vectors in one conceptual pass, written to out as
// [⟨a0,b0⟩..⟨a0,b3⟩, ⟨a1,b0⟩..⟨a1,b3⟩]. The tile exists for memory
// traffic, not arithmetic: each streamed b column is reused by two
// rows, cutting the bandwidth per pair to 6/8 of a vector where the
// 1×4 tile pays 5/4. Every pair keeps the canonical pair2 order — the
// pure-Go tile simply runs dot4Go twice.
func dot24Go(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	out[0], out[1], out[2], out[3] = dot4Go(a0, b0, b1, b2, b3)
	out[4], out[5], out[6], out[7] = dot4Go(a1, b0, b1, b2, b3)
}
