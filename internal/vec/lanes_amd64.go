//go:build amd64

package vec

import "math"

// amd64 dispatch for the gradient path's two row kernels
// (lanes_avx2_amd64.s), the Box–Muller kernel behind NormalRun
// (boxmuller_avx2_amd64.s), which serves FillNormal and the batch path
// of data.FillBatch, and the coordinate-wise median behind MedianLanes
// (median_avx2_amd64.s). Unlike the Gram microkernels these define no
// accumulation order of their own — SIMD lanes run across the output
// columns j, or across independent samples, and every element sees the
// scalar code's rounded operations in the scalar code's order (the
// median: its comparisons and its one 0.5·(lo + hi)) — so only TierAVX2
// has them, and TierGo runs the Go loops in dense.go, vec.go and
// rng.go, and core's column sort.

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func accum4AVX2(d *float64, n int, b *float64, offs *int, coefs *float64, groups int)

//go:noescape
func boxMullerAVX2(u, v, c, s *float64, n int)

//go:noescape
func medianAVX2(dst *float64, rows *[]float64, n, blocks int)

// lanesMinWidth is the narrowest row worth a call into the assembly:
// two full vectors. The 3- and 6-wide products of the small softmax
// workloads stay on the Go loops.
const lanesMinWidth = 8

// useLanes reports whether a row (or a run of normals) of the given
// width goes to the AVX2 kernels. It is the only gate: under
// TierGo no assembly in this file is reached.
func useLanes(width int) bool {
	return width >= lanesMinWidth && KernelTier() == TierAVX2
}

// boxMullerLanes sets cos[p], sin[p] to NormFloat64's variates of the
// uniforms (u[p], v[p]) on the AVX2 kernel, four pairs to a vector, for
// every p below the largest multiple of four that fits in len(u), and
// returns that count; the pairs above it are the caller's scalar tail.
// Under TierGo it transforms nothing and returns 0 — the
// count is gated through useLanes as a width of 2·p normals.
func boxMullerLanes(u, v, cos, sin []float64) int {
	n := len(u) &^ 3
	if !useLanes(2 * n) {
		return 0
	}
	_, _, _ = v[n-1], cos[n-1], sin[n-1]
	boxMullerAVX2(&u[0], &v[0], &cos[0], &sin[0], n)
	return n
}

// medianLanes is MedianLanes on the AVX2 kernel, over the whole
// four-column blocks of dst.
func medianLanes(dst []float64, rows [][]float64) int {
	for _, r := range rows {
		if len(r) < len(dst) {
			panic("vec: MedianLanes: a row is shorter than dst")
		}
	}
	medianAVX2(&dst[0], &rows[0], len(rows), len(dst)/4)
	return len(dst) &^ 3
}

// axpyLanes is Axpy's loop on the AVX2 kernel; len(x) == len(y) > 0.
func axpyLanes(alpha float64, x, y []float64) {
	axpyAVX2(alpha, &x[0], &y[0], len(x))
}

// accumulateRowsLanes is accumulateRows on the AVX2 kernels: the
// nonzero coefficients and the offsets of their rows of b are gathered
// (a branchless conditional increment) into a scratch that is
// flushed through accum4AVX2 whenever it fills; what is left at the end
// goes four terms at a time, then one by one through axpyAVX2.
func accumulateRowsLanes(drow, coef []float64, first, stride int, b *Dense) {
	var (
		offs  [32]int
		coefs [32]float64
	)
	// Every row k < b.Rows is read at rows[k·Cols : k·Cols+len(drow)].
	rows := b.Data[:b.Rows*b.Cols]
	if len(drow) > b.Cols {
		panic("vec: accumulateRows: destination row wider than b")
	}
	n, cols := 0, b.Cols
	for k, off := 0, 0; k < b.Rows; k, off = k+1, off+cols {
		c := coef[first+k*stride]
		offs[n], coefs[n] = off, c
		// n++ unless c is ±0, without a branch (at ≈ 45 % zeros one
		// would mispredict every other k): u drops the sign bit, and
		// u|-u has its top bit set exactly when u is nonzero.
		u := math.Float64bits(c) << 1
		n += int((u | -u) >> 63)
		if n == len(offs) {
			accum4AVX2(&drow[0], len(drow), &rows[0], &offs[0], &coefs[0], len(offs)/4)
			n = 0
		}
	}
	if n >= 4 {
		accum4AVX2(&drow[0], len(drow), &rows[0], &offs[0], &coefs[0], n/4)
	}
	for i := n &^ 3; i < n; i++ {
		axpyAVX2(coefs[i], &rows[offs[i]], &drow[0], len(drow))
	}
}
