//go:build amd64

package vec

import "math"

// amd64 dispatch for the gradient path's two row kernels
// (lanes_avx2_amd64.s). Unlike the Gram microkernels these define no
// accumulation order of their own — SIMD lanes run across the output
// columns j and every element sees the scalar loop's rounded multiply
// and rounded add in the scalar loop's order — so only TierAVX2 has
// them, and TierGo / TierSSE2 run the Go loops in dense.go and vec.go.

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func accum4AVX2(d *float64, n int, b *float64, offs *int, coefs *float64, groups int)

// lanesMinWidth is the narrowest row worth a call into the assembly:
// two full vectors. The 3- and 6-wide products of the small softmax
// workloads stay on the Go loops.
const lanesMinWidth = 8

// useLanes reports whether a row of the given width goes to the AVX2
// kernels. It is the only gate: under TierGo and TierSSE2 no assembly
// in this file is reached.
func useLanes(width int) bool {
	return width >= lanesMinWidth && KernelTier() == TierAVX2
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
