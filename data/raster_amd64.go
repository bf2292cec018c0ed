//go:build amd64

package data

import "krum/internal/vec"

// amd64 dispatch for Render's AVX2 kernels (raster_avx2_amd64.s). Lanes
// run across pixels and every pixel sees the Go loops' rounded
// operations in the Go loops' order, so the kernels define no order of
// their own: only TierAVX2 has them, and TierGo runs the Go loops.

//go:noescape
func strokeAVX2(row *float64, size int, centres, cx *float64, n int, wxvx, wx2, ex2 *float64, geom *[6]float64)

//go:noescape
func intensityAVX2(img *float64, n int, thickness, soft float64)

// rasterLanes reports whether Render runs its AVX2 kernels. It is the
// only gate: under TierGo no assembly in this package is reached.
func rasterLanes() bool { return vec.KernelTier() == vec.TierAVX2 }

// strokeLanes runs pass 1 of Render for one stroke, geom = {x1, y1, vx,
// vy, len2, ey}, over every column of the block starting at img[0]; the
// per-column terms are the block's wxvx, wx2 and ex2.
func strokeLanes(img []float64, size int, centres, cols []float64, wxvx, wx2, ex2 *[colBlock]float64, geom *[6]float64) {
	_ = img[(size-1)*size+len(cols)-1]
	strokeAVX2(&img[0], size, &centres[0], &cols[0], len(cols), &wxvx[0], &wx2[0], &ex2[0], geom)
}

// intensityLanes runs pass 2 of Render over img's whole vectors of
// four pixels and returns how many pixels that was.
func intensityLanes(img []float64, thickness, soft float64) int {
	n := len(img) &^ 3
	if n > 0 {
		intensityAVX2(&img[0], n, thickness, soft)
	}
	return n
}
