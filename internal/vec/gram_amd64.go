//go:build amd64

package vec

// amd64 dispatch for the Gram microkernels. Three tiers share the seam
// (see tier.go): TierGo runs the pure-Go pair2 tiles, TierSSE2 the
// baseline SSE2 assembly (bit-identical to TierGo — the two 64-bit XMM
// lanes ARE the pair2 order's even/odd accumulator pair), and TierAVX2
// the AVX2+FMA assembly in gram_avx2_amd64.s, whose four fused YMM
// lanes implement the distinct "fma4" canonical order. The tier is
// chosen once at init (CPUID probe + the KRUM_KERNEL_TIER knob) and
// read here as one atomic load per call — noise against the O(d) inner
// product each call performs. gram_test.go pins every tier's tiles to
// its order's definition (spec_test.go) and to fixed golden vectors.

//go:noescape
func dot4SSE2(a, b0, b1, b2, b3 *float64, n int, out *[4]float64)

//go:noescape
func dot24SSE2(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)

//go:noescape
func dot4AVX2(a, b0, b1, b2, b3 *float64, n int, out *[4]float64)

//go:noescape
func dot24AVX2(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)

// dot4Block is the 1×4 tile over one depth block (len ≤ gramBlock) in
// the active tier's lane order; the walker composes it across blocks
// (see the contract in gram.go).
func dot4Block(a, b0, b1, b2, b3 []float64) (float64, float64, float64, float64) {
	n := len(a)
	if n == 0 {
		return 0, 0, 0, 0
	}
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var out [4]float64
	switch KernelTier() {
	case TierAVX2:
		dot4AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n, &out)
	case TierGo:
		return dot4Go(a, b0, b1, b2, b3)
	default:
		dot4SSE2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n, &out)
	}
	return out[0], out[1], out[2], out[3]
}

// dot24Block is the one-depth-block 2×4 tile in the active tier's lane
// order; see dot24Go for the layout.
func dot24Block(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	n := len(a0)
	if n == 0 {
		*out = [8]float64{}
		return
	}
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	switch KernelTier() {
	case TierAVX2:
		dot24AVX2(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], n, out)
	case TierGo:
		dot24Go(a0, a1, b0, b1, b2, b3, out)
	default:
		dot24SSE2(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], n, out)
	}
}
