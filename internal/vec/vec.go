// Package vec provides the dense float64 vector and matrix kernels used
// throughout the repository: BLAS-level-1 style operations, pairwise
// distance computation, partial selection, and deterministic random
// sampling.
//
// The package is deliberately allocation-conscious: every mutating
// operation works in place on caller-provided slices, and the few
// allocating helpers are clearly named (Clone, NewDense, ...). All
// functions treat a nil slice as an empty vector.
package vec

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrDimensionMismatch is returned (or caused panics in must-variants)
// when two vectors participating in an operation have different lengths.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// checkLen panics with a descriptive message if the two lengths differ.
// The hot-path kernels use panics rather than error returns, mirroring
// the stdlib convention for programmer errors (e.g. copy of mismatched
// fixed shapes); the boundary APIs in package core validate sizes and
// return errors before calling into these kernels.
func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: %s: dimension mismatch (%d vs %d): %v", op, a, b, ErrDimensionMismatch))
	}
}

// Dot returns the inner product <a, b>.
func Dot(a, b []float64) float64 {
	checkLen("Dot", len(a), len(b))
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	return math.Sqrt(Norm2(v))
}

// Dist2 returns the squared Euclidean distance between a and b.
// This is the primitive the Krum score is built from.
func Dist2(a, b []float64) float64 {
	checkLen("Dist2", len(a), len(b))
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 {
	return math.Sqrt(Dist2(a, b))
}

// Axpy computes y += alpha*x in place: y[i] += alpha·x[i], a rounded
// multiply then a rounded add, on every tier (see MatMul for the NaN
// clause). x and y may be the same vector; a partial overlap is not
// supported.
func Axpy(alpha float64, x, y []float64) {
	checkLen("Axpy", len(x), len(y))
	if useLanes(len(x)) {
		axpyLanes(alpha, x, y)
		return
	}
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Add computes dst = a + b. dst may alias a or b.
func Add(dst, a, b []float64) {
	checkLen("Add", len(a), len(b))
	checkLen("Add", len(dst), len(a))
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", len(a), len(b))
	checkLen("Sub", len(dst), len(a))
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Mul computes the element-wise (Hadamard) product dst = a ⊙ b.
func Mul(dst, a, b []float64) {
	checkLen("Mul", len(a), len(b))
	checkLen("Mul", len(dst), len(a))
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Zero sets every element of v to 0.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// Clone returns a freshly allocated copy of v. Clone(nil) returns nil.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// CloneAll deep-copies a slice of vectors into one contiguous arena
// (each copy capped at its own length, so appending to one reallocates
// instead of running into its neighbour).
func CloneAll(vs [][]float64) [][]float64 {
	if vs == nil {
		return nil
	}
	arena := slices.Concat(vs...)
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i], arena = arena[:len(v):len(v)], arena[len(v):]
	}
	return out
}

// Mean computes dst = the arithmetic mean of the vectors vs.
// It panics if vs is empty or dimensions disagree.
func Mean(dst []float64, vs [][]float64) {
	MeanOf(dst, vs, nil)
}

// MeanOf computes dst = the arithmetic mean of vs[i] over i in idx,
// summed from zero in idx order and scaled once by 1/len(idx) — the one
// home of every averaging rule. A nil idx means all of vs, in order.
// It panics if that is zero vectors or dimensions disagree.
func MeanOf(dst []float64, vs [][]float64, idx []int) {
	n := len(idx)
	if idx == nil {
		n = len(vs)
	}
	if n == 0 {
		panic("vec: Mean of zero vectors")
	}
	Zero(dst)
	if idx == nil {
		for _, v := range vs {
			Axpy(1, v, dst)
		}
	}
	for _, i := range idx {
		Axpy(1, vs[i], dst)
	}
	Scale(1/float64(n), dst)
}

// WeightedSum computes dst = Σ w[i]·vs[i].
func WeightedSum(dst []float64, w []float64, vs [][]float64) {
	checkLen("WeightedSum", len(w), len(vs))
	Zero(dst)
	for i, v := range vs {
		Axpy(w[i], v, dst)
	}
}

// AllFinite reports whether every element of v is finite (no NaN or Inf).
func AllFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b are element-wise equal within tol
// (absolute tolerance).
func ApproxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, av := range a {
		if math.Abs(av-b[i]) > tol {
			return false
		}
	}
	return true
}

// Argmin returns the index of the smallest element of v (first occurrence
// wins ties), or -1 for an empty vector.
func Argmin(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// Argmax returns the index of the largest element of v (first occurrence
// wins ties), or -1 for an empty vector.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
