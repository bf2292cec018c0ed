package vec

import (
	"fmt"
	"math"
	"testing"
)

// matMulReference and matMulATBReference are MatMul and MatMulATB as
// they stood before the gather-four rewrite, kept verbatim (panics
// aside): one pass over the destination row per nonzero coefficient.
// They define the accumulation order the rewrite must reproduce bit for
// bit, zero-coefficient skip included.
func matMulReference(dst, a, b *Dense) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func matMulATBReference(dst, a, b *Dense) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// sameBits reports the first index at which got and want differ as bit
// patterns (NaN payloads and zero signs included), or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// sameNaNness is sameBits with one thing forgiven: where both elements
// are NaN their payloads may differ.
func sameNaNness(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// sparseDense fills a rows×cols matrix with normals, zeroing each entry
// with probability zeroFrac (a quarter of the zeros negative, since
// -0 == 0 must skip too).
func sparseDense(rng *RNG, rows, cols int, zeroFrac float64) *Dense {
	m := randomDense(rng, rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			m.Data[i] = 0
			if rng.Intn(4) == 0 {
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return m
}

// checkMatMulOrder runs both products on (a, b) against their
// references. a is r×k for MatMul; MatMulATB gets aᵀ's layout by
// reusing a as its k×r left operand with a b of matching height.
func checkMatMulOrder(t *testing.T, a, b, bATB *Dense) {
	t.Helper()
	got, want := NewDense(a.Rows, b.Cols), NewDense(a.Rows, b.Cols)
	MatMul(got, a, b)
	matMulReference(want, a, b)
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("MatMul (%dx%d)·(%dx%d): element %d is %x, reference %x",
			a.Rows, a.Cols, b.Rows, b.Cols, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
	}
	got, want = NewDense(a.Cols, bATB.Cols), NewDense(a.Cols, bATB.Cols)
	MatMulATB(got, a, bATB)
	matMulATBReference(want, a, bATB)
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("MatMulATB (%dx%d)ᵀ·(%dx%d): element %d is %x, reference %x",
			a.Rows, a.Cols, bATB.Rows, bATB.Cols, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
	}
}

// forEachTier runs f as one subtest per available kernel tier, with that
// tier forced: the Go loops under go and sse2, the AVX2 row kernels
// (lanes_avx2_amd64.s) under avx2 — all held to the same references.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			f(t)
		})
	}
}

// TestMatMulOrderMatchesReference: random shapes at three sparsity
// levels, under every tier. r < 40, k < 80 and c ≤ 70 cross every seam
// of both implementations for MatMul (k terms per element) and for the
// strided MatMulATB (r terms): empty matrices, every remainder of the
// four-term gather, the 8-wide gate into the row kernels, their
// 8 / 4 / 1-column steps and every n mod 4 tail, and the 32-entry
// gather scratch filling and flushing mid-row.
func TestMatMulOrderMatchesReference(t *testing.T) {
	for _, zeroFrac := range []float64{0, 0.45, 0.9} {
		t.Run(fmt.Sprintf("zeros=%g", zeroFrac), func(t *testing.T) {
			forEachTier(t, func(t *testing.T) {
				rng := NewRNG(uint64(1 + 100*zeroFrac))
				for trial := 0; trial < 300; trial++ {
					r, k, c := rng.Intn(40), rng.Intn(80), rng.Intn(71)
					a := sparseDense(rng, r, k, zeroFrac)
					checkMatMulOrder(t, a, randomDense(rng, k, c), randomDense(rng, r, c))
				}
			})
		})
	}
}

// TestLanesGate is what "the go and sse2 tiers run the Go loops" rests
// on: useLanes is the only way into the assembly — the row kernels and
// FillNormal's Box–Muller kernel alike — and it opens for widths of at
// least 8 under avx2 and for nothing else.
func TestLanesGate(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		for width := 0; width <= 70; width++ {
			if got, want := useLanes(width), KernelTier() == TierAVX2 && width >= 8; got != want {
				t.Errorf("useLanes(%d) = %v under %v", width, got, KernelTier())
			}
		}
	})
}

// axpyReference is Axpy's scalar loop, the order every tier must match.
func axpyReference(alpha float64, x, y []float64) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// TestAxpyMatchesScalar: every length 0–70 (each step of the kernel —
// 16, 4, 1 — entered and left at every residue) against the scalar
// loop, bit for bit, under every tier, with y distinct from x and with
// the exact alias Axpy(a, v, v). Partial overlap is unsupported.
func TestAxpyMatchesScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(11)
		for n := 0; n <= 70; n++ {
			for _, alpha := range []float64{rng.NormFloat64(), 1, -1, 0, math.Copysign(0, -1)} {
				x, y := rng.NewNormal(n, 0, 1), rng.NewNormal(n, 0, 1)
				want := Clone(y)
				axpyReference(alpha, x, want)
				Axpy(alpha, x, y)
				if i := sameBits(y, want); i >= 0 {
					t.Fatalf("Axpy(%v) n=%d: element %d is %x, scalar loop %x", alpha, n, i, math.Float64bits(y[i]), math.Float64bits(want[i]))
				}
				want = Clone(x)
				axpyReference(alpha, want, want)
				Axpy(alpha, x, x)
				if i := sameBits(x, want); i >= 0 {
					t.Fatalf("Axpy(%v, v, v) n=%d: element %d is %x, scalar loop %x", alpha, n, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// specialDense fills a rows×cols matrix with normals, replacing each
// entry with probability frac by a draw from specials.
func specialDense(rng *RNG, rows, cols int, frac float64, specials []float64) *Dense {
	m := randomDense(rng, rows, cols)
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// TestMatMulNaNContract pins the NaN clause of MatMul's contract on
// MatMul, MatMulATB and Axpy, at widths 8–67 under every tier. With
// ±Inf, ±0, the smallest subnormals, ±MaxFloat64 and the NaN the
// hardware itself produces (so that every NaN in play has one payload)
// anywhere in a, b and α, results equal the references bit for bit —
// overflow, Inf−Inf, 0·Inf and subnormal products included. With NaNs
// of several payloads, which payload an element ends up with is
// unspecified (the scalar loop disagrees with its own reference about
// it), but which elements are NaN is not, and every other element
// keeps its bits.
func TestMatMulNaNContract(t *testing.T) {
	inf := math.Inf(1)
	hardwareNaN := inf - inf
	specials := []float64{inf, -inf, 0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, hardwareNaN}
	payloads := []float64{hardwareNaN, math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff800000000dead)}
	for _, mode := range []struct {
		name     string
		specials []float64
		differ   func(got, want []float64) int
	}{{"one-payload", specials, sameBits}, {"mixed-payloads", append(payloads, inf, 0), sameNaNness}} {
		t.Run(mode.name, func(t *testing.T) {
			forEachTier(t, func(t *testing.T) {
				rng := NewRNG(29)
				for trial := 0; trial < 1000; trial++ {
					r, k, c := 1+rng.Intn(6), 1+rng.Intn(40), 8+rng.Intn(60)
					a := specialDense(rng, r, k, 0.3, mode.specials)
					b, bATB := specialDense(rng, k, c, 0.1, mode.specials), specialDense(rng, r, c, 0.1, mode.specials)

					got, want := NewDense(r, c), NewDense(r, c)
					MatMul(got, a, b)
					matMulReference(want, a, b)
					if i := mode.differ(got.Data, want.Data); i >= 0 {
						t.Fatalf("trial %d MatMul (%dx%d)·(%dx%d): element %d is %x, reference %x", trial, r, k, k, c, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
					}
					got, want = NewDense(k, c), NewDense(k, c)
					MatMulATB(got, a, bATB)
					matMulATBReference(want, a, bATB)
					if i := mode.differ(got.Data, want.Data); i >= 0 {
						t.Fatalf("trial %d MatMulATB (%dx%d)ᵀ·(%dx%d): element %d is %x, reference %x", trial, r, k, r, c, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
					}
					alpha := a.Data[0]
					y, wantY := Clone(bATB.Row(0)), Clone(bATB.Row(0))
					Axpy(alpha, b.Row(0), y)
					axpyReference(alpha, b.Row(0), wantY)
					if i := mode.differ(y, wantY); i >= 0 {
						t.Fatalf("trial %d Axpy(%x) n=%d: element %d is %x, scalar loop %x", trial, math.Float64bits(alpha), c, i, math.Float64bits(y[i]), math.Float64bits(wantY[i]))
					}
				}
			})
		})
	}
}

// TestMatMulSkipsZeroCoefficients pins the skip as semantics, not as an
// optimisation: a non-finite row of b whose coefficient is zero leaves
// dst finite, one whose coefficient is not poisons it exactly as the
// reference does.
func TestMatMulSkipsZeroCoefficients(t *testing.T) {
	rng := NewRNG(7)
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for trial := 0; trial < 100; trial++ {
			r, k, c := 1+rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(8)
			a := sparseDense(rng, r, k, 0.3)
			b, bATB := randomDense(rng, k, c), randomDense(rng, r, c)
			// Poison one row of each right operand; on even trials
			// every coefficient that multiplies it is zero.
			kBad, rBad := rng.Intn(k), rng.Intn(r)
			b.Row(kBad)[rng.Intn(c)] = bad
			bATB.Row(rBad)[rng.Intn(c)] = bad
			if trial%2 == 0 {
				for i := 0; i < r; i++ {
					a.Set(i, kBad, 0)
				}
				Zero(a.Row(rBad))
			}
			checkMatMulOrder(t, a, b, bATB)
			if trial%2 == 0 {
				dst := NewDense(r, c)
				MatMul(dst, a, b)
				if !AllFinite(dst.Data) {
					t.Fatalf("MatMul let %v through a zero coefficient", bad)
				}
				dst = NewDense(k, c)
				MatMulATB(dst, a, bATB)
				if !AllFinite(dst.Data) {
					t.Fatalf("MatMulATB let %v through a zero coefficient", bad)
				}
			}
		}
	}
}

// FuzzMatMulOrder derives shapes (the ranges of
// TestMatMulOrderMatchesReference), sparsity and the data from the fuzz
// input and checks both products against their references bit for bit
// under every tier.
func FuzzMatMulOrder(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(40), uint8(12), uint8(115))
	f.Add(uint64(2), uint8(1), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(8), uint8(6), uint8(3), uint8(230))
	f.Add(uint64(4), uint8(5), uint8(0), uint8(5), uint8(128))
	f.Add(uint64(5), uint8(39), uint8(79), uint8(67), uint8(0))
	f.Add(uint64(6), uint8(16), uint8(16), uint8(48), uint8(115))
	f.Fuzz(func(t *testing.T, seed uint64, r8, k8, c8, zeros uint8) {
		r, k, c := int(r8%40), int(k8%80), int(c8%71)
		for _, tier := range AvailableTiers() {
			forceTier(t, tier)
			rng := NewRNG(seed)
			a := sparseDense(rng, r, k, float64(zeros)/255)
			checkMatMulOrder(t, a, randomDense(rng, k, c), randomDense(rng, r, c))
		}
	})
}
