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

// TestMatMulOrderMatchesReference: random shapes (every remainder of the
// four-term gather, empty matrices included) at three sparsity levels.
func TestMatMulOrderMatchesReference(t *testing.T) {
	for _, zeroFrac := range []float64{0, 0.45, 0.9} {
		t.Run(fmt.Sprintf("zeros=%g", zeroFrac), func(t *testing.T) {
			rng := NewRNG(uint64(1 + 100*zeroFrac))
			for trial := 0; trial < 300; trial++ {
				r, k, c := rng.Intn(20), rng.Intn(40), rng.Intn(20)
				a := sparseDense(rng, r, k, zeroFrac)
				checkMatMulOrder(t, a, randomDense(rng, k, c), randomDense(rng, r, c))
			}
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

// FuzzMatMulOrder derives shapes, sparsity and the data from the fuzz
// input and checks both products against their references bit for bit.
func FuzzMatMulOrder(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(40), uint8(12), uint8(115))
	f.Add(uint64(2), uint8(1), uint8(3), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(8), uint8(6), uint8(3), uint8(230))
	f.Add(uint64(4), uint8(5), uint8(0), uint8(5), uint8(128))
	f.Fuzz(func(t *testing.T, seed uint64, r8, k8, c8, zeros uint8) {
		r, k, c := int(r8%24), int(k8%48), int(c8%24)
		rng := NewRNG(seed)
		a := sparseDense(rng, r, k, float64(zeros)/255)
		checkMatMulOrder(t, a, randomDense(rng, k, c), randomDense(rng, r, c))
	})
}
