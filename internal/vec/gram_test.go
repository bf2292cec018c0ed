package vec

import (
	"math"
	"testing"
)

// forceTier activates tier until the test (or subtest) ends; restores
// stack, so forcing one tier after another unwinds to the original.
func forceTier(t *testing.T, tier Tier) {
	t.Helper()
	restore, err := SetKernelTier(tier)
	if err != nil {
		t.Fatalf("SetKernelTier(%v): %v", tier, err)
	}
	t.Cleanup(restore)
}

// underEachTier calls f once per available tier, with that tier active.
func underEachTier(t *testing.T, f func(tier Tier)) {
	t.Helper()
	for _, tier := range AvailableTiers() {
		forceTier(t, tier)
		f(tier)
	}
}

// tileDots runs the active tier's two tiles — the 2×4 over rows a0, a1
// and the 1×4 over a0 — against the columns bs, composed over depth
// blocks the way the walker composes them: per-block results added in
// ascending k from +0. out[4r+c] is the 2×4 tile's ⟨a_r,b_c⟩, out[8+c]
// the 1×4 tile's ⟨a0,b_c⟩. (An empty vector still makes one call, for
// the dispatchers' n = 0 arm.)
func tileDots(a0, a1 []float64, bs [4][]float64) (out [12]float64) {
	for k := 0; k < max(len(a0), 1); k += gramBlock {
		e := min(k+gramBlock, len(a0))
		var t [8]float64
		dot24Block(a0[k:e], a1[k:e], bs[0][k:e], bs[1][k:e], bs[2][k:e], bs[3][k:e], &t)
		for i, p := range t {
			out[i] += p
		}
		p0, p1, p2, p3 := dot4Block(a0[k:e], bs[0][k:e], bs[1][k:e], bs[2][k:e], bs[3][k:e])
		for c, p := range [4]float64{p0, p1, p2, p3} {
			out[8+c] += p
		}
	}
	return out
}

// checkTilesAgainstSpec holds every column of both tiles, under every
// available tier, to specDot over vectors of the given lengths: a tile
// reference is eight (or four) calls of the one definition. The magnitude spread makes the accumulation order matter:
// a reordered sum differs in the low bits.
func checkTilesAgainstSpec(t *testing.T, seed uint64, lengths []int) {
	for _, tier := range AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := NewRNG(seed)
			for _, n := range lengths {
				a0, a1 := rng.NewNormal(n, 0, 3), rng.NewNormal(n, 0, 3)
				for k := range a0 {
					if k%3 == 0 {
						a0[k] *= 1e8
					}
					if k%5 == 0 {
						a0[k] *= 1e-8
					}
				}
				var bs [4][]float64
				for c := range bs {
					bs[c] = rng.NewNormal(n, 0, 3)
				}
				got := tileDots(a0, a1, bs)
				for c, b := range bs {
					w0, w1 := specDot(a0, b), specDot(a1, b)
					if got[c] != w0 || got[4+c] != w1 || got[8+c] != w0 {
						t.Errorf("n=%d column %d: 2×4 tile (%v, %v), 1×4 tile %v; spec (%v, %v)",
							n, c, got[c], got[4+c], got[8+c], w0, w1)
					}
				}
			}
		})
	}
}

// TestDotKernelsBitIdentical pins the dispatched tiles of EVERY
// available tier to the order as spec_test.go defines it: all
// lengths — including the empty, single-element, and every tail
// residue — must agree bit for bit, not just within tolerance. This is
// the asm ≡ definition proof for AVX2, and the pure-Go tiles'.
func TestDotKernelsBitIdentical(t *testing.T) {
	checkTilesAgainstSpec(t, 7, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 33, 100, 1001})
}

// TestDotBlockedComposition is the same pin at multi-block dimensions:
// every tile column, composed across the block seam as the walker
// composes it, must equal the per-block lane sums added in ascending k
// (TestSpecFamiliesPortable shows the seam is observable).
func TestDotBlockedComposition(t *testing.T) {
	checkTilesAgainstSpec(t, 11, []int{gramBlock + 1, 2 * gramBlock, 2*gramBlock + 5, 3*gramBlock + 1807})
}

// goldenVec deterministically builds a golden input vector from pure
// integer arithmetic and exact float operations (a 53-bit mantissa is
// converted exactly; the ×1e3 / ×1e-3 magnitude spread keeps every
// element contributing to the low bits of the sum, so a dropped tail
// lane cannot hide). No libm calls — the inputs are bit-identical on
// every platform and Go release.
func goldenVec(seed uint64, n int) []float64 {
	x := seed
	v := make([]float64, n)
	for i := range v {
		x = x*6364136223846793005 + 1442695040888963407
		f := float64(x>>11)/(1<<53) - 0.5
		switch i % 3 {
		case 1:
			f *= 1e3
		case 2:
			f *= 1e-3
		}
		v[i] = f
	}
	return v
}

// goldenLens covers every AVX2 tail residue twice over (n mod 8 ∈ 0..7
// and n mod 4 ∈ 0..3 for each), a long vector, and two multi-block ones
// (a block and one element; two blocks and a tail of 5).
var goldenLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 100, gramBlock + 1, 2*gramBlock + 5}

// goldenSeedA and goldenSeedB seed the two golden operands.
const goldenSeedA, goldenSeedB = 0x9e3779b97f4a7c15, 0xd1b54a32d192ed03

// dotGoldens pins ⟨goldenVec(A,n), goldenVec(B,n)⟩ in the fma4 order
// as raw bit patterns, one per entry of goldenLens. These were computed
// once (the single-block ones from the pure-Go lane function, the
// multi-block ones from the spec and every tier's tiles, which agreed)
// and hardcoded: they freeze the canonical accumulation order, block
// length included, forever — an "optimization" that reorders a sum, a
// tail-handling bug, or an asm/definition drift all land here as a bit
// mismatch.
var dotGoldens = []uint64{
	0x0000000000000000, 0x3fc2a21dbd18ab28, 0xc0ebcd8cb90888a1,
	0xc0ebcd8cb908b55f, 0xc0ebcd8e95e38d10, 0x40de81ca63ccae08,
	0x40de81ca63cca610, 0x40de81cd2f9784b4, 0xc101d3e7236094b0,
	0xc101d3e72360947e, 0xc101d3e6cf3455c8, 0xc0f4db754097c82e,
	0xc0f4db754097d87c, 0xc0f4db75bbbf74e4, 0xc0fa6f69ce58f496,
	0xc0fa6f69ce58f76c, 0xc0fa6f6b8b5840e4, 0x412c4cc48c4cd261,
	0xc1080f4943ea413d, 0xc1465f4e1617c119,
}

// checkGoldens holds every product dots returns to its frozen golden,
// at every golden length up to maxLen.
func checkGoldens(t *testing.T, what string, maxLen int, dots func(a, b []float64) []float64) {
	t.Helper()
	for i, n := range goldenLens {
		if n > maxLen {
			continue
		}
		for c, got := range dots(goldenVec(goldenSeedA, n), goldenVec(goldenSeedB, n)) {
			if want := dotGoldens[i]; math.Float64bits(got) != want {
				t.Errorf("n=%d: %s %d = %#016x, golden %#016x", n, what, c, math.Float64bits(got), want)
			}
		}
	}
}

// TestSpecFamiliesPortable checks the definition itself on every host
// (math.FMA is correctly rounded everywhere, so a regression shows
// without AVX2): specDot reproduces every frozen golden, the
// multi-block ones included, and at those the blocked sum DIFFERS from
// one lane pass over the whole vector — the block seam is an
// observable part of the order, not a no-op.
func TestSpecFamiliesPortable(t *testing.T) {
	t.Run("fma4", func(t *testing.T) {
		checkGoldens(t, "specDot", math.MaxInt, func(a, b []float64) []float64 { return []float64{specDot(a, b)} })
		for _, n := range goldenLens {
			a, b := goldenVec(goldenSeedA, n), goldenVec(goldenSeedB, n)
			if n > gramBlock && dotFMAGo(a, b) == specDot(a, b) {
				t.Errorf("n=%d: blocked and single-pass sums agree; the seam check is vacuous", n)
			}
		}
	})
}

// TestDotGoldenVectors checks the lane function against the frozen
// single-block goldens (portable, like the test above), then forces
// each available tier and checks every column of the DISPATCHED tiles
// against all of them. Together with TestDotKernelsBitIdentical this
// pins asm ≡ definition ≡ golden.
func TestDotGoldenVectors(t *testing.T) {
	t.Run("reference/fma4", func(t *testing.T) {
		checkGoldens(t, "lane function", gramBlock, func(a, b []float64) []float64 { return []float64{dotFMAGo(a, b)} })
	})
	for _, tier := range AvailableTiers() {
		t.Run("dispatch/"+tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			checkGoldens(t, "tile product", math.MaxInt, func(a, b []float64) []float64 {
				out := tileDots(a, a, [4][]float64{b, b, b, b})
				return out[:]
			})
		})
	}
}
