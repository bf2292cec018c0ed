package vec

import (
	"fmt"
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
// bit for bit (with avx2 forced, whatever the knob says)
// on every binade of u from 2⁻⁵³ to 1 − 2⁻⁵³ with the mantissas where
// log's frexp and its √2/2 adjustment turn (0, 1, all ones, √2/2 and its
// neighbours), crossed with v at and around every octant seam of
// Sincos's reduction, 0 and 1 − 2⁻⁵³ included; then on 10⁷ random
// pairs drawn as NormFloat64 draws them (10⁶ under -short).
func TestBoxMullerLanesMatchMath(t *testing.T) {
	if !TierAvailable(TierAVX2) {
		t.Skip("the AVX2 kernel cannot run on this CPU")
	}
	forceTier(t, TierAVX2)
	const batch = 32
	u, v, c, s := make([]float64, batch), make([]float64, batch), make([]float64, batch), make([]float64, batch)
	n := 0
	flush := func() {
		t.Helper()
		// Pad to whole vectors with a valid pair; the padding is not checked.
		k := (n + 3) &^ 3
		for p := n; p < k; p++ {
			u[p], v[p] = 0.5, 0.25
		}
		if got := boxMullerLanes(u[:k], v[:k], c[:k], s[:k]); got != k {
			t.Fatalf("boxMullerLanes transformed %d of %d pairs under avx2", got, k)
		}
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
		if n++; n == batch {
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

// TestNormalRunMatchesNormFloat64: under every tier, a NormalRun whose
// Draws are interleaved with other draws — an Intn before each row, as
// a mixture's class, or two Float64s, as spambase's class and verbosity
// — returns the normals NormFloat64 calls in the same places would, bit
// for bit, and leaves the generator where they leave it: the next
// normal (a cached variate or none) and the next raw word agree. Rows
// of 0 to 9 normals in runs of up to 40 rows cross both parities and
// the four-pair vector seams, entered with and without a cached
// variate; one generator's first word is 0 and another's second, so a
// run's first u is redrawn whether or not a row opens with an Intn.
// One NormalRun serves every run, so its reuse is checked too.
func TestNormalRunMatchesNormFloat64(t *testing.T) {
	generators := []func() *RNG{
		func() *RNG { return NewRNG(17) },
		func() *RNG { return &RNG{s: [4]uint64{0x9E3779B97F4A7C15, 0, 1, 2}} },
		func() *RNG { return &RNG{s: [4]uint64{0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15 ^ 3, 3, 5}} },
	}
	if generators[1]().Uint64() != 0 {
		t.Fatal("the first zero-word generator's first word is not 0")
	}
	if r := generators[2](); r.Uint64() == 0 || r.Uint64() != 0 {
		t.Fatal("the second zero-word generator's second word is not 0")
	}
	other := []struct {
		name string
		draw func(r *RNG) float64
	}{
		{"none", func(*RNG) float64 { return 0 }},
		{"intn", func(r *RNG) float64 { return float64(r.Intn(3)) }},
		{"float64x2", func(r *RNG) float64 { return r.Float64() + 2*r.Float64() }},
	}
	forEachTier(t, func(t *testing.T) {
		var run NormalRun
		for g, newRNG := range generators {
			shapes := NewRNG(uint64(100 + g))
			for _, o := range other {
				for trial := 0; trial < 60; trial++ {
					rows := make([]int, shapes.Intn(41))
					for i := range rows {
						rows[i] = shapes.Intn(10)
					}
					prior := trial % 4
					got, want := newRNG(), newRNG()
					for range prior {
						got.NormFloat64()
						want.NormFloat64()
					}
					var gotOther, wantOther, wantZ []float64
					run.Begin(got)
					for _, m := range rows {
						gotOther = append(gotOther, o.draw(got))
						run.Draw(m)
						wantOther = append(wantOther, o.draw(want))
						for range m {
							wantZ = append(wantZ, want.NormFloat64())
						}
					}
					// One slot past the run's end must stay untouched.
					z := make([]float64, len(wantZ)+1)
					z[len(wantZ)] = 42
					run.End(z)
					if z[len(wantZ)] != 42 {
						t.Fatal("End wrote past the run's normals")
					}
					z = z[:len(wantZ)]
					where := func() string {
						return fmt.Sprintf("generator %d %s rows %v prior %d", g, o.name, rows, prior)
					}
					if len(z) != len(wantZ) {
						t.Fatalf("%s: %d normals, want %d", where(), len(z), len(wantZ))
					}
					for i := range z {
						if math.Float64bits(z[i]) != math.Float64bits(wantZ[i]) {
							t.Fatalf("%s: normal %d is %x, NormFloat64 %x", where(), i, math.Float64bits(z[i]), math.Float64bits(wantZ[i]))
						}
					}
					for i := range gotOther {
						if gotOther[i] != wantOther[i] {
							t.Fatalf("%s: row %d's other draw %v, want %v", where(), i, gotOther[i], wantOther[i])
						}
					}
					if gn, wn := got.NormFloat64(), want.NormFloat64(); math.Float64bits(gn) != math.Float64bits(wn) {
						t.Fatalf("%s: next normal %x, NormFloat64 %x", where(), math.Float64bits(gn), math.Float64bits(wn))
					}
					if gw, ww := got.Uint64(), want.Uint64(); gw != ww {
						t.Fatalf("%s: next word %x, NormFloat64 %x", where(), gw, ww)
					}
				}
			}
		}
	})
}

// TestNormalRunAllocations: a warm NormalRun draws and transforms a
// run no longer than its last without allocating, and so does
// FillNormal on the lanes path, whose runs are pooled (checked outside
// -race only: sync.Pool drops values at random under the detector).
func TestNormalRunAllocations(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		var run NormalRun
		r := NewRNG(3)
		dst := make([]float64, 300)
		if n := testing.AllocsPerRun(100, func() {
			run.Begin(r)
			for range 8 {
				r.Intn(3)
				run.Draw(6)
			}
			run.End(dst)
		}); n != 0 {
			t.Errorf("%v allocations per warm run", n)
		}
		if raceDetectorEnabled {
			return
		}
		if n := testing.AllocsPerRun(100, func() { r.FillNormal(dst, 0, 1) }); n != 0 {
			t.Errorf("%v allocations per warm FillNormal", n)
		}
	})
}
