//go:build amd64

package vec

// amd64 dispatch for the Gram microkernels. Two tiers share the seam
// (see tier.go) and compute one order, "fma4": TierAVX2 runs the
// AVX2+FMA assembly in gram_avx2_amd64.s, its four fused YMM lanes, and
// TierGo the pure-Go tiles of gram.go. The tier is chosen once at init
// (CPUID probe + the KRUM_KERNEL_TIER knob) and read here as one atomic
// load per call — noise against the O(d) inner product each call
// performs. gram_test.go pins both tiers' tiles to the order's
// definition (spec_test.go) and to fixed golden vectors.

//go:noescape
func dot4AVX2(a, b0, b1, b2, b3 *float64, n int, out *[4]float64)

//go:noescape
func dot24AVX2(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64)

// dot4Block is the 1×4 tile over one depth block (len ≤ gramBlock) on
// the active tier; the walker composes it across blocks
// (see the contract in gram.go).
func dot4Block(a, b0, b1, b2, b3 []float64) (float64, float64, float64, float64) {
	n := len(a)
	if n == 0 || KernelTier() != TierAVX2 {
		return dot4Go(a, b0, b1, b2, b3)
	}
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var out [4]float64
	dot4AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n, &out)
	return out[0], out[1], out[2], out[3]
}

// dot24Block is the one-depth-block 2×4 tile on the active tier; see
// dot24Go for the layout.
func dot24Block(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	n := len(a0)
	if n == 0 || KernelTier() != TierAVX2 {
		dot24Go(a0, a1, b0, b1, b2, b3, out)
		return
	}
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	dot24AVX2(&a0[0], &a1[0], &b0[0], &b1[0], &b2[0], &b3[0], n, out)
}
