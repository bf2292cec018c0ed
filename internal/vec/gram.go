package vec

import "math"

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
// BIT-STABILITY CONTRACT (ROADMAP decision (a)): there is one
// canonical accumulation order for an inner product, "fma4", and every
// product the walker (DistanceMatrix.fill: every build and update,
// serial or parallel, pairs and norms alike) takes from a tile
// reproduces exactly that order, under every kernel tier (tier.go) and
// on every GOARCH. IEEE-754 multiplication is commutative bit for bit
// and the k-order never changes, so ⟨a,b⟩ is bit-identical whichever
// tier, tile shape, tile column, column panel, goroutine count, or tile
// alignment computes it. This is what lets DistanceMatrix.UpdateRow
// promise results identical to a full rebuild, and the scenario runner
// promise identical results across worker counts and hosts.
//
// The canonical order has two levels:
//
// DEPTH BLOCKING: an inner product of dimension d is accumulated in
// consecutive k-blocks of gramBlock elements. Each block starts its
// lane accumulators at zero, runs the lane order below, and reduces;
// the per-block results are then summed into one scalar in ascending-k
// order. For d ≤ gramBlock this is exactly the single-pass order (one
// block), so the golden vectors and every small-dimension result are
// unchanged by blocking. The block seam is what lets DistanceMatrix
// build depth-first at deep-learning dimensions — all n vectors'
// k-slices stay cache-resident while every pair consumes them — without
// perturbing a single bit: a pair's value depends only on the
// k-sequence its own lanes consume, never on which tile or row-set
// drove the kernel.
//
// LANE ORDER: four interleaved partial sums, lane j taking the terms
// with k ≡ j (mod 4) through fused multiply-adds (one rounding per
// term), reduced as (s0+s2)+(s1+s3). The avx2 tier
// (gram_avx2_amd64.s) runs the four lanes of one YMM accumulator, a
// masked load feeding the tail lanes (a masked-out lane contributes
// fma(0, 0, s) = s, bit for bit); the go tier runs them as math.FMA,
// which rounds once on every GOARCH (in software where the CPU has no
// FMA, at a price in speed, not in bits).
//
// The walker composes the tiles across blocks in place; the per-block
// tiles dot4Block and dot24Block dispatch on the active tier
// (gram_amd64.go on amd64, this file's pure-Go tiles elsewhere). The
// order itself is defined once, as code, in spec_test.go — the lane
// function, specDot (the blocked composition) and specCell (the
// clamped Gram identity) — and the tests pin to it by bits every tile
// column of every tier at every tail residue, at multi-block
// dimensions and on fixed golden vectors (gram_test.go), and every cell
// and norm the walker produces (walker_test.go).

// gramBlock is the depth-blocking factor of the canonical accumulation
// order: inner products accumulate in k-blocks of this many elements
// (see the contract above). It is part of the observable order — low
// bits at d > gramBlock depend on it — so changing it is a
// result-changing event exactly like changing the lane order: it needs
// a store.Version bump. 2048 doubles (16 KiB per vector slice) keeps a
// 2×4 tile's six operand slices under typical L1/L2 budgets while
// amortizing the per-call reduction to noise; it is a multiple of 4, so
// every block starts lane-phase-aligned. Tuned on BenchmarkDistanceMatrix at n = 40, d = 10⁴
// against 1024/4096/unblocked.
const gramBlock = 2048

// panelBytes is the walker's column-panel budget: stage keeps the
// k-block slices of one panel of columns — at most this many bytes —
// cache-resident while every row pair streams past them, so the budget
// is sized to sit in a 2 MB L2 beside the streaming rows. Unlike
// gramBlock it moves no bit: it decides only WHICH tile
// call produces a cell's product, never the k-sequence that product's
// lanes consume, and by the contract above a cell's bits depend on the
// latter alone — so it can be retuned freely. Measured at n = 1000,
// d = 1000 from 250 KB to 2 MB (EXPERIMENTS.md "Distance build at large
// n: one panel in L2"): flat between 500 KB and 1 MB, slower on either
// side, and 1 MB leaves every shape with n ≤ 64, or n ≤ 128 at
// d ≤ 1024, on a single panel.
const panelBytes = 1 << 20

// dot4Go returns ⟨a,b0⟩, ⟨a,b1⟩, ⟨a,b2⟩, ⟨a,b3⟩ over one depth
// block: the 1×4 tile of the blocked kernel in the fma4 lane order, two
// columns at a time. Each column's four lanes are four independent
// math.FMA chains, so a pass runs eight chains on one load of a[k].
// The tail (k ≡ 0, 1, 2 mod 4 past the last full step) feeds lanes 0,
// 1, 2 by rotating them through lane 0: the reduction pairs lanes 0, 2
// and 1, 3, which a rotation maps onto each other, so the sum is the
// same whatever lane ends where.
func dot4Go(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	var r [4]float64
	for c, bs := range [2][2][]float64{{b0, b1}, {b2, b3}} {
		b, d := bs[0][:len(a)], bs[1][:len(a)]
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		k := 0
		for ; k+4 <= len(a); k += 4 {
			x, y, z := a[k:k+4:k+4], b[k:k+4:k+4], d[k:k+4:k+4]
			s0, t0 = math.FMA(x[0], y[0], s0), math.FMA(x[0], z[0], t0)
			s1, t1 = math.FMA(x[1], y[1], s1), math.FMA(x[1], z[1], t1)
			s2, t2 = math.FMA(x[2], y[2], s2), math.FMA(x[2], z[2], t2)
			s3, t3 = math.FMA(x[3], y[3], s3), math.FMA(x[3], z[3], t3)
		}
		for ; k < len(a); k++ {
			s0, s1, s2, s3 = s1, s2, s3, math.FMA(a[k], b[k], s0)
			t0, t1, t2, t3 = t1, t2, t3, math.FMA(a[k], d[k], t0)
		}
		r[2*c], r[2*c+1] = (s0+s2)+(s1+s3), (t0+t2)+(t1+t3)
	}
	return r[0], r[1], r[2], r[3]
}

// dot24Go is the 2×4 tile: the dots of two row vectors a0, a1 against
// four column vectors, written to out as [⟨a0,b0⟩..⟨a0,b3⟩,
// ⟨a1,b0⟩..⟨a1,b3⟩]. The asm tile exists for memory traffic: each
// streamed b column is reused by two rows. The pure-Go tile runs
// dot4Go twice; every pair keeps the one lane order.
func dot24Go(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	out[0], out[1], out[2], out[3] = dot4Go(a0, b0, b1, b2, b3)
	out[4], out[5], out[6], out[7] = dot4Go(a1, b0, b1, b2, b3)
}
