package core

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// MinimalDiameter is the majority-based rule the paper sketches in the
// introduction as the conceptually robust but computationally prohibitive
// alternative to Krum: enumerate every subset of n − f proposals, pick
// the subset with the smallest diameter (largest pairwise distance inside
// the subset), and average it. Its cost is C(n, f)·(n−f)² distance
// lookups on top of the O(n²·d) distance matrix — exponential in f —
// which is exactly why the paper rejects it in favour of Krum. It is
// implemented here to reproduce that cost comparison (experiment E3
// includes it as the upper curve) and as a semantic reference point in
// tests.
type MinimalDiameter struct {
	// F is the number of Byzantine workers excluded from the chosen
	// subset.
	F int
}

// maxSubsets guards against accidental combinatorial blow-ups: if
// C(n, f) exceeds it, Aggregate returns ErrBadParameter instead of
// running for hours.
const maxSubsets = 2_000_000

// NewMinimalDiameter returns the exponential majority-based rule.
func NewMinimalDiameter(f int) *MinimalDiameter { return &MinimalDiameter{F: f} }

var (
	_ Rule            = (*MinimalDiameter)(nil)
	_ Selector        = (*MinimalDiameter)(nil)
	_ ContextRule     = (*MinimalDiameter)(nil)
	_ ContextSelector = (*MinimalDiameter)(nil)
)

// Name implements Rule.
func (*MinimalDiameter) Name() string { return "minimaldiameter" }

// SelectContext implements ContextSelector: the subset enumeration runs
// over the shared distance matrix. Ties resolve to the
// lexicographically smallest subset because enumeration is in
// lexicographic order and strict improvement is required to switch.
func (md *MinimalDiameter) SelectContext(ctx *RoundContext) ([]int, error) {
	vectors := ctx.Vectors()
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoVectors
	}
	if md.F < 0 || n-md.F < 1 {
		return nil, fmt.Errorf("f = %d with n = %d: %w", md.F, n, ErrTooFewWorkers)
	}
	k := n - md.F
	if c := binomial(n, k); c < 0 || c > maxSubsets {
		return nil, fmt.Errorf("C(%d, %d) subsets exceed limit %d: %w", n, k, maxSubsets, ErrBadParameter)
	}
	d := len(vectors[0])
	for i, v := range vectors {
		if len(v) != d {
			return nil, fmt.Errorf("vector %d has dimension %d, want %d: %w", i, len(v), d, ErrDimensionMismatch)
		}
	}
	dm := ctx.Distances()

	best := make([]int, k)
	cur := make([]int, k)
	for i := range cur {
		cur[i] = i
	}
	copy(best, cur)
	bestDiam := subsetDiameter(dm, cur)
	for nextCombination(cur, n) {
		if diam := subsetDiameter(dm, cur); vec.Less(diam, bestDiam) {
			bestDiam = diam
			copy(best, cur)
		}
	}
	return best, nil
}

// Select returns the indices of the minimal-diameter subset of size
// n − F, ordered ascending.
func (md *MinimalDiameter) Select(vectors [][]float64) ([]int, error) {
	return md.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule: the average of the
// minimal-diameter subset found on the shared matrix.
func (md *MinimalDiameter) AggregateContext(dst []float64, ctx *RoundContext) error {
	sel, err := md.SelectContext(ctx)
	return aggregateSelection(dst, ctx.Vectors(), sel, err, true)
}

// Aggregate implements Rule: the average of the minimal-diameter subset.
func (md *MinimalDiameter) Aggregate(dst []float64, vectors [][]float64) error {
	return md.AggregateContext(dst, NewRoundContext(vectors))
}

// subsetDiameter returns the largest pairwise squared distance within
// the index subset by vec.Less: NaN if any is NaN.
func subsetDiameter(dm *vec.DistanceMatrix, subset []int) float64 {
	var diam float64
	for a := 0; a < len(subset); a++ {
		for b := a + 1; b < len(subset); b++ {
			if d := dm.At(subset[a], subset[b]); vec.Less(diam, d) {
				diam = d
			}
		}
	}
	return diam
}

// nextCombination advances idx to the next k-combination of {0..n-1} in
// lexicographic order, returning false after the last one.
func nextCombination(idx []int, n int) bool {
	k := len(idx)
	for i := k - 1; i >= 0; i-- {
		if idx[i] < n-k+i {
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
			return true
		}
	}
	return false
}

// binomial returns C(n, k), or -1 on overflow of int.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		// res * (n-k+i) may overflow; detect via float guard.
		if float64(res)*float64(n-k+i) > math.MaxInt64/4 {
			return -1
		}
		res = res * (n - k + i) / i
	}
	return res
}
