package vec

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d of 64 outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collide on %d of 64 outputs", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) only produced %d distinct values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("sample mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("sample variance = %v, want ~1", variance)
	}
}

func TestFillNormalParameters(t *testing.T) {
	r := NewRNG(6)
	v := make([]float64, 100000)
	r.FillNormal(v, 3, 2)
	mean := Sum(v) / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(v)))
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("sd = %v, want ~2", sd)
	}
}

// normFloat64Reference is NormFloat64 as it stood before Sincos, kept
// verbatim: separate Sin and Cos calls, each with its own range
// reduction.
func normFloat64Reference(r *RNG) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.gauss = radius * math.Sin(theta)
	r.hasGauss = true
	return radius * math.Cos(theta)
}

// TestSincosMatchesSinCos: over Box–Muller's angle range θ = 2π·v,
// v ∈ [0, 1) on the 2⁻⁵³ grid Float64 draws from, math.Sincos returns
// the bits math.Sin and math.Cos do — random angles plus the octant
// boundaries and both ends of the range, where the reductions differ if
// anywhere.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		theta := 2 * math.Pi * v
		s, c := math.Sincos(theta)
		if math.Float64bits(s) != math.Float64bits(math.Sin(theta)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(theta)) {
			t.Fatalf("θ = 2π·%v: Sincos (%v, %v), Sin %v, Cos %v", v, s, c, math.Sin(theta), math.Cos(theta))
		}
	}
	const ulp = 1.0 / (1 << 53)
	for k := 0; k <= 8; k++ {
		for _, dv := range []float64{-2 * ulp, -ulp, 0, ulp, 2 * ulp} {
			if v := float64(k)/8 + dv; v >= 0 && v < 1 {
				check(v)
			}
		}
	}
	draws := 2_000_000
	if testing.Short() {
		draws = 200_000
	}
	rng := NewRNG(99)
	for i := 0; i < draws; i++ {
		check(rng.Float64())
	}
}

// TestNormFloat64MatchesReference: the stream itself, cached second
// variate included, is bit-identical to the Sin/Cos formulation.
func TestNormFloat64MatchesReference(t *testing.T) {
	got, want := NewRNG(5), NewRNG(5)
	for i := 0; i < 100_001; i++ {
		g, w := got.NormFloat64(), normFloat64Reference(want)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("draw %d: %v, reference %v", i, g, w)
		}
	}
	if got.Uint64() != want.Uint64() {
		t.Error("generators diverged")
	}
}
