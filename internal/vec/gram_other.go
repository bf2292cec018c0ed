//go:build !amd64

package vec

// Portable dispatch for the Gram microkernels: non-amd64 platforms run
// the pure-Go tiles, TierGo being the only tier here (tier_other.go).

// dot4Block is the one-depth-block 1×4 tile; see dot4Go for the lane
// order.
func dot4Block(a, b0, b1, b2, b3 []float64) (float64, float64, float64, float64) {
	return dot4Go(a, b0, b1, b2, b3)
}

// dot24Block is the one-depth-block 2×4 tile; see dot24Go for the
// layout and lane order.
func dot24Block(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	dot24Go(a0, a1, b0, b1, b2, b3, out)
}
