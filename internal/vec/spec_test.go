package vec

import "math"

// The executable definition of a distance-matrix cell, one per
// accumulation-order family (gram.go's contract, as code). Nothing here
// tiles, panels, fans out or touches unsafe: a cell's bits are a
// function of its own two vectors and the family alone, and every
// kernel of every tier, every build, rebuild and update, is pinned to
// these functions by bits (gram_test.go, walker_test.go). A new order
// family is one new lane function in specLanes.

// specLanes maps an order family (Tier.Order) to its lane function: the
// inner product of ONE depth block (len ≤ gramBlock).
var specLanes = map[string]func(a, b []float64) float64{"pair2": dotPairGo, "fma4": dotFMAGo}

// dotPairGo is the pair2 lane order: two partial sums, lane j taking the
// terms with k ≡ j (mod 2) as a rounded multiply then a rounded add,
// reduced as s0 + s1. (The float64 conversion forbids fusing the two.)
func dotPairGo(a, b []float64) float64 {
	var s [2]float64
	for k := range a {
		s[k%2] += float64(a[k] * b[k])
	}
	return s[0] + s[1]
}

// dotFMAGo is the fma4 lane order: four partial sums, lane j taking the
// terms with k ≡ j (mod 4) through a fused multiply-add (one rounding
// per term), reduced as (s0 + s2) + (s1 + s3). math.FMA is correctly
// rounded on every platform, so this runs on a host with no AVX2.
func dotFMAGo(a, b []float64) float64 {
	var s [4]float64
	for k := range a {
		s[k%4] = math.FMA(a[k], b[k], s[k%4])
	}
	return (s[0] + s[2]) + (s[1] + s[3])
}

// specDot is ⟨a,b⟩ in the family's canonical order: the lane sums of
// consecutive gramBlock-long depth blocks, added in ascending k from +0.
func specDot(order string, a, b []float64) float64 {
	var s float64
	for k := 0; k < len(a); k += gramBlock {
		e := min(k+gramBlock, len(a))
		s += specLanes[order](a[k:e], b[k:e])
	}
	return s
}

// specNorm is ‖a‖² as the matrix holds it: a's product with itself.
func specNorm(order string, a []float64) float64 { return specDot(order, a, a) }

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
func specCell(order string, a, b []float64) float64 {
	if len(a) <= naiveDimMax {
		return Dist2(a, b)
	}
	return specAssemble(specNorm(order, a), specNorm(order, b), specDot(order, a, b))
}
