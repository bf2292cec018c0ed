package core

import (
	"fmt"
	"math"
	"slices"

	"krum/internal/vec"
)

// Average is the classical choice function used by virtually all
// distributed SGD deployments the paper cites: the barycenter
// F_bary = (1/n)·Σ V_i. By Lemma 3.1 it tolerates zero Byzantine
// workers. The zero value is ready to use.
type Average struct{}

var _ Rule = Average{}

// Name implements Rule.
func (Average) Name() string { return "average" }

// Aggregate implements Rule.
func (Average) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	vec.Mean(dst, vectors)
	return nil
}

// Linear is the general linear choice function of Lemma 3.1:
// F_lin = Σ λ_i·V_i with non-zero coefficients. A single Byzantine
// worker that knows the λ_i's and the other proposals can force the
// output to any target vector (see attack.LinearTakeover). Construct
// with NewLinear.
type Linear struct {
	weights []float64
}

// NewLinear returns a linear rule with the given coefficients. All
// coefficients must be non-zero, matching the lemma's hypothesis.
func NewLinear(weights []float64) (*Linear, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("empty weights: %w", ErrBadParameter)
	}
	for i, w := range weights {
		if w == 0 {
			return nil, fmt.Errorf("weight %d is zero: %w", i, ErrBadParameter)
		}
	}
	return &Linear{weights: vec.Clone(weights)}, nil
}

var _ Rule = (*Linear)(nil)

// Name implements Rule.
func (*Linear) Name() string { return "linear" }

// Weights returns a copy of the coefficients (copy-at-boundary per the
// style guides, so callers cannot mutate internal state).
func (l *Linear) Weights() []float64 { return vec.Clone(l.weights) }

// Aggregate implements Rule.
func (l *Linear) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	if len(vectors) != len(l.weights) {
		return fmt.Errorf("got %d vectors for %d weights: %w", len(vectors), len(l.weights), ErrDimensionMismatch)
	}
	vec.WeightedSum(dst, l.weights, vectors)
	return nil
}

// Medoid is the distance-based choice function the paper discusses (and
// dismisses) in Section 4: it selects the proposed vector U minimizing
// Σ_i ‖U − V_i‖² over ALL proposals. It tolerates exactly one Byzantine
// worker: per Figure 2, two colluding attackers defeat it (see
// attack.MedoidCollusion). It is implemented here as the baseline for
// experiment E2. The zero value is ready to use.
type Medoid struct{}

var (
	_ Rule            = Medoid{}
	_ Selector        = Medoid{}
	_ ContextRule     = Medoid{}
	_ ContextSelector = Medoid{}
)

// Name implements Rule.
func (Medoid) Name() string { return "medoid" }

// SelectContext implements ContextSelector against a shared round.
func (Medoid) SelectContext(ctx *RoundContext) ([]int, error) {
	if _, err := checkVectors(ctx.Vectors()); err != nil {
		return nil, err
	}
	n := ctx.N()
	dm := ctx.Distances()
	scores := vec.GetFloats(n)
	defer vec.PutFloats(scores)
	for i := 0; i < n; i++ {
		scores[i] = vec.Sum(dm.Row(i))
	}
	return []int{vec.Argmin(scores)}, nil
}

// Select returns the index of the sum-of-squared-distance minimiser,
// ties broken by smallest index.
func (m Medoid) Select(vectors [][]float64) ([]int, error) {
	return m.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule.
func (m Medoid) AggregateContext(dst []float64, ctx *RoundContext) error {
	if err := checkInputs(dst, ctx.Vectors()); err != nil {
		return err
	}
	sel, err := m.SelectContext(ctx)
	if err != nil {
		return err
	}
	copy(dst, ctx.Vectors()[sel[0]])
	return nil
}

// Aggregate implements Rule.
func (m Medoid) Aggregate(dst []float64, vectors [][]float64) error {
	return m.AggregateContext(dst, NewRoundContext(vectors))
}

// CoordMedian is the coordinate-wise median, a classical robust
// baseline from the follow-up literature. Included for the derived
// selection-quality table (T1) and ablations; it is NOT one of the
// paper's rules but shares the (α, f) verifier.
type CoordMedian struct{}

var _ Rule = CoordMedian{}

// Name implements Rule.
func (CoordMedian) Name() string { return "coordmedian" }

// Aggregate implements Rule.
func (CoordMedian) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	column := vec.GetFloats(len(vectors))
	defer vec.PutFloats(column)
	for j := range dst {
		sortedColumn(column, vectors, j)
		dst[j] = medianOfSorted(column)
	}
	return nil
}

// insertionSortMax is the longest column sortColumn sorts by insertion.
// On random columns insertion beats slices.Sort by 1.2–1.7× up to
// n = 128 and loses from n ≈ 200 (EXPERIMENTS.md, "Gradient path"); a
// descending column costs insertion twice the random case, so the cut
// sits at the low end of the tie.
const insertionSortMax = 128

// sortColumn sorts column ascending with NaNs first — slices.Sort's
// order, so which value lands at which index is the same; only the
// order among equal values (+0 and -0, NaNs of different payloads) may
// differ, which it also may between two pdqsort inputs. The rules sort
// one column of n proposals per coordinate, d times per round: at
// n = 20 a plain insertion sort is 1.7× faster than pdqsort's pivot
// and pattern machinery.
func sortColumn(column []float64) {
	if len(column) > insertionSortMax {
		slices.Sort(column)
		return
	}
	for i := 1; i < len(column); i++ {
		x := column[i]
		j := i
		for ; j > 0 && (x < column[j-1] || (x != x && column[j-1] == column[j-1])); j-- {
			column[j] = column[j-1]
		}
		column[j] = x
	}
}

// sortedColumn gathers coordinate j of every vector into column
// (len(vectors)) and sorts it.
func sortedColumn(column []float64, vectors [][]float64, j int) {
	for i, v := range vectors {
		column[i] = v[j]
	}
	sortColumn(column)
}

// medianOfSorted returns the median of a sorted, non-empty slice.
func medianOfSorted(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// TrimmedMean is the coordinate-wise β-trimmed mean: for each coordinate
// it discards the Trim largest and Trim smallest values and averages the
// rest. Another classical robust baseline used in the ablation benches.
type TrimmedMean struct {
	// Trim is the number of values removed at EACH end per coordinate;
	// it must satisfy 2·Trim < n.
	Trim int
}

var _ Rule = TrimmedMean{}

// Name implements Rule.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmedmean(b=%d)", t.Trim) }

// Aggregate implements Rule.
func (t TrimmedMean) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	n := len(vectors)
	if t.Trim < 0 || 2*t.Trim >= n {
		return fmt.Errorf("trim = %d with n = %d (need 2·trim < n): %w", t.Trim, n, ErrBadParameter)
	}
	column := vec.GetFloats(n)
	defer vec.PutFloats(column)
	kept := float64(n - 2*t.Trim)
	for j := range dst {
		sortedColumn(column, vectors, j)
		// Summed in ascending order: the order is part of the result.
		var s float64
		for _, x := range column[t.Trim : n-t.Trim] {
			s += x
		}
		dst[j] = s / kept
	}
	return nil
}

// GeoMedian approximates the geometric median (the point minimizing the
// sum of UNSQUARED distances) with Weiszfeld's algorithm. The paper's
// resilience proof for Krum is "reminiscent of the geometric median
// technique" (Section 4); this rule lets the benches compare against it
// directly. Unlike Krum it does not output one of the proposals.
type GeoMedian struct {
	// MaxIter bounds Weiszfeld iterations; 0 means the default (100).
	MaxIter int
	// Tol is the convergence threshold on the step norm; 0 means the
	// default (1e-8).
	Tol float64
}

var _ Rule = GeoMedian{}

// Name implements Rule.
func (GeoMedian) Name() string { return "geomedian" }

// Aggregate implements Rule.
func (g GeoMedian) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	maxIter := g.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := g.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	// Start from the barycenter.
	vec.Mean(dst, vectors)
	next := make([]float64, len(dst))
	for iter := 0; iter < maxIter; iter++ {
		var wsum float64
		vec.Zero(next)
		exactHit := false
		for _, v := range vectors {
			dist := math.Sqrt(vec.Dist2(dst, v))
			if dist < 1e-12 {
				// Weiszfeld is undefined exactly at a data point; the
				// data point itself is then a valid output.
				copy(dst, v)
				exactHit = true
				break
			}
			w := 1 / dist
			wsum += w
			vec.Axpy(w, v, next)
		}
		if exactHit {
			return nil
		}
		vec.Scale(1/wsum, next)
		moved := vec.Dist2(dst, next)
		copy(dst, next)
		if moved < tol*tol {
			return nil
		}
	}
	return nil
}
