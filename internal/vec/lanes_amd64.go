//go:build amd64

package vec

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
func accumRowAVX2(d *float64, n int, b *float64, cols int, coef *float64, stride int, terms int)

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

// matMulLanes is MatMul and MatMulATB on the AVX2 kernel: row i of dst
// is Σ_k coef[i·step+k·stride]·b.Row(k), one accumRowAVX2 call per
// row, which reads the row's coefficient column, skips the ±0 terms
// and writes the whole row from +0, so dst's previous contents do not
// matter. All that is left here are the bounds checks the assembly
// cannot make, once per product.
func matMulLanes(dst *Dense, coef []float64, step, stride int, b *Dense) {
	if dst.Cols > b.Cols {
		panic("vec: MatMul: destination row wider than b")
	}
	if dst.Rows == 0 {
		return
	}
	if b.Rows == 0 {
		dst.Zero()
		return
	}
	// Row i reads coef[i·step+k·stride] and b's rows k < b.Rows, each
	// at [k·Cols, k·Cols+dst.Cols).
	_ = dst.Data[dst.Rows*dst.Cols-1]
	_ = coef[(dst.Rows-1)*step+(b.Rows-1)*stride]
	rows := b.Data[:(b.Rows-1)*b.Cols+dst.Cols]
	for i := 0; i < dst.Rows; i++ {
		accumRowAVX2(&dst.Data[i*dst.Cols], dst.Cols, &rows[0], b.Cols, &coef[i*step], stride, b.Rows)
	}
}
