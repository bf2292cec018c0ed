//go:build !amd64

package data

// Non-amd64 platforms have no raster kernel: rasterLanes is constant
// false, so Render always runs its Go loop and the stubs below are never
// called.

func rasterLanes() bool { return false }

func strokeLanes([]float64, int, []float64, []float64, *[colBlock]float64, *[colBlock]float64, *[colBlock]float64, *[6]float64) {
}

func intensityLanes([]float64, float64, float64) int { return 0 }
