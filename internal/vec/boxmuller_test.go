package vec

import (
	"math"
	"testing"
)

// boxMullerScalar is NormFloat64's transform of one pair of uniforms:
// the definition every lane of the Box–Muller kernel must reproduce.
func boxMullerScalar(u, v float64) (c, s float64) {
	radius := math.Sqrt(-2 * math.Log(u))
	sin, cos := math.Sincos(2 * math.Pi * v)
	return radius * cos, radius * sin
}

// TestBoxMullerLanesMatchMath holds the AVX2 kernel to boxMullerScalar
// bit for bit (whatever tier is active — the kernel is called directly)
// on every binade of u from 2⁻⁵³ to 1 − 2⁻⁵³ with the mantissas where
// log's frexp and its √2/2 adjustment turn (0, 1, all ones, √2/2 and its
// neighbours), crossed with v at and around every octant seam of
// Sincos's reduction, 0 and 1 − 2⁻⁵³ included; then on 10⁷ random
// pairs drawn as NormFloat64 draws them (10⁶ under -short).
func TestBoxMullerLanesMatchMath(t *testing.T) {
	if !TierAvailable(TierAVX2) {
		t.Skip("the AVX2 kernel cannot run on this CPU")
	}
	var u, v, c, s [normalBatch]float64
	n := 0
	flush := func() {
		t.Helper()
		boxMullerLanes(&u, &v, &c, &s, n)
		for p := range n {
			wc, ws := boxMullerScalar(u[p], v[p])
			if math.Float64bits(c[p]) != math.Float64bits(wc) || math.Float64bits(s[p]) != math.Float64bits(ws) {
				t.Fatalf("u=%x v=%x (lane %d of %d): (%x, %x), math (%x, %x)",
					math.Float64bits(u[p]), math.Float64bits(v[p]), p%4, n,
					math.Float64bits(c[p]), math.Float64bits(s[p]), math.Float64bits(wc), math.Float64bits(ws))
			}
		}
		n = 0
	}
	add := func(uu, vv float64) {
		t.Helper()
		u[n], v[n] = uu, vv
		if n++; n == normalBatch {
			flush()
		}
	}

	const (
		mantissa = 1<<52 - 1
		hsqrt2   = 0x6a09e667f3bcd // √2/2's mantissa
		ulp      = 1.0 / (1 << 53)
	)
	var us []float64
	for e := -53; e <= -1; e++ {
		for _, m := range []uint64{0, 1, mantissa, hsqrt2 - 1, hsqrt2, hsqrt2 + 1} {
			us = append(us, math.Float64frombits(uint64(1023+e)<<52|m))
		}
	}
	vs := []float64{0, 1 - ulp}
	for k := 0; k <= 8; k++ {
		// The reduction's j steps where x·(4/π) crosses k, a few ulps of
		// v from k/8; ±64 ulps brackets it.
		for d := -64; d <= 64; d++ {
			if vv := float64(k)/8 + float64(d)*ulp; vv >= 0 && vv < 1 {
				vs = append(vs, vv)
			}
		}
	}
	for _, uu := range us {
		for _, vv := range vs {
			add(uu, vv)
		}
	}
	flush()

	pairs := 10_000_000
	if testing.Short() {
		pairs = 1_000_000
	}
	rng := NewRNG(31)
	for range pairs {
		uu := rng.Float64()
		for uu == 0 {
			uu = rng.Float64()
		}
		add(uu, rng.Float64())
	}
	flush()
}

// TestFillNormalMatchesNormFloat64: under every tier, FillNormal is
// len(dst) NormFloat64 calls — every value bit for bit, and the
// generator left in the same state, observed through the next normal
// (the cached variate) and the next raw word. Lengths cross every batch
// seam and both parities, entered with and without a cached variate; one
// generator's first word is 0, so both sides take the u == 0 redraw.
func TestFillNormalMatchesNormFloat64(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 257, 12826)
	generators := []func() *RNG{
		func() *RNG { return NewRNG(17) },
		func() *RNG { return &RNG{s: [4]uint64{0x9E3779B97F4A7C15, 0, 1, 2}} },
	}
	if generators[1]().Uint64() != 0 {
		t.Fatal("the zero-word generator's first word is not 0")
	}
	forEachTier(t, func(t *testing.T) {
		for g, newRNG := range generators {
			for _, n := range lengths {
				for prior := 0; prior <= 3; prior++ {
					got, want := newRNG(), newRNG()
					for range prior {
						got.NormFloat64()
						want.NormFloat64()
					}
					dst := make([]float64, n)
					got.FillNormal(dst, 0.5, 3)
					for i, x := range dst {
						if w := 0.5 + 3*want.NormFloat64(); math.Float64bits(x) != math.Float64bits(w) {
							t.Fatalf("generator %d n=%d prior=%d: element %d is %x, NormFloat64 %x", g, n, prior, i, math.Float64bits(x), math.Float64bits(w))
						}
					}
					if gn, wn := got.NormFloat64(), want.NormFloat64(); math.Float64bits(gn) != math.Float64bits(wn) {
						t.Fatalf("generator %d n=%d prior=%d: next normal %x, NormFloat64 %x", g, n, prior, math.Float64bits(gn), math.Float64bits(wn))
					}
					if gw, ww := got.Uint64(), want.Uint64(); gw != ww {
						t.Fatalf("generator %d n=%d prior=%d: next word %x, NormFloat64 %x", g, n, prior, gw, ww)
					}
				}
			}
		}
	})
}
