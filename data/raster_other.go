//go:build !amd64

package data

// Non-amd64 platforms have no raster kernel: rasterLanes is constant
// false, so Render always runs its Go loop and the stub below is never
// called.

func rasterLanes() bool { return false }

func strokeLanes([]float64, int, []float64, []float64, *[colBlock]float64, *[colBlock]float64, *[colBlock]float64, *[6]float64) {
}
