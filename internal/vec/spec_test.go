package vec

import "math"

// The executable definition of a distance-matrix cell (gram.go's
// contract, as code). Nothing here tiles, panels, fans out or touches
// unsafe: a cell's bits are a function of its own two vectors alone,
// and every kernel of every tier, every build, rebuild and update, is
// pinned to these functions by bits (gram_test.go, walker_test.go).

// dotFMAGo is the fma4 lane order over ONE depth block (len ≤
// gramBlock): four partial sums, lane j taking the terms with
// k ≡ j (mod 4) through a fused multiply-add (one rounding per term),
// reduced as (s0 + s2) + (s1 + s3).
func dotFMAGo(a, b []float64) float64 {
	var s [4]float64
	for k := range a {
		s[k%4] = math.FMA(a[k], b[k], s[k%4])
	}
	return (s[0] + s[2]) + (s[1] + s[3])
}

// specDot is ⟨a,b⟩ in the canonical order: the lane sums of
// consecutive gramBlock-long depth blocks, added in ascending k from +0.
func specDot(a, b []float64) float64 {
	var s float64
	for k := 0; k < len(a); k += gramBlock {
		e := min(k+gramBlock, len(a))
		s += dotFMAGo(a[k:e], b[k:e])
	}
	return s
}

// specNorm is ‖a‖² as the matrix holds it: a's product with itself.
func specNorm(a []float64) float64 { return specDot(a, a) }

// specAssemble turns two norms and a product into the cell: the Gram
// identity, clamped at zero against cancellation.
func specAssemble(na, nb, ab float64) float64 {
	v := na + nb - 2*ab
	if v < 0 {
		v = 0
	}
	return v
}

// specCell is the squared distance a matrix over distinct rows a and b
// holds (the diagonal is 0 by definition): the exact subtract-square
// sum up to naiveDimMax coordinates, the clamped Gram identity beyond.
func specCell(a, b []float64) float64 {
	if len(a) <= naiveDimMax {
		return Dist2(a, b)
	}
	return specAssemble(specNorm(a), specNorm(b), specDot(a, b))
}
