package core

import (
	"fmt"

	"krum/internal/vec"
)

// Krum is the paper's choice function Kr (Section 4). For each proposed
// vector V_i it computes the score
//
//	s(i) = Σ_{i→j} ‖V_i − V_j‖²
//
// where the sum ranges over the n − f − 2 vectors closest to V_i, and
// outputs the vector of the worker with the minimal score, breaking ties
// in favour of the smallest worker identifier (footnote 3).
//
// Complexity is O(n²·d) (Lemma 4.1): the pairwise distance matrix
// dominates; score extraction adds O(n²) with the bounded-heap
// selection of package vec.
//
// The zero value declares f = 0 (crash-free operation); construct with
// NewKrum to declare a Byzantine tolerance.
type Krum struct {
	// F is the number of Byzantine workers tolerated. The resilience
	// guarantee of Proposition 4.2 requires n > 2F + 2.
	F int
	// Strict, when set, makes Aggregate fail unless n > 2F + 2 (the
	// resilience precondition) instead of merely requiring the score to
	// be well defined (n ≥ F + 3).
	Strict bool
}

// NewKrum returns a Krum rule tolerating f Byzantine workers.
func NewKrum(f int) *Krum { return &Krum{F: f} }

var (
	_ Rule            = (*Krum)(nil)
	_ Selector        = (*Krum)(nil)
	_ ContextRule     = (*Krum)(nil)
	_ ContextSelector = (*Krum)(nil)
)

// Name implements Rule.
func (k *Krum) Name() string { return "krum" }

// validateN checks the rule parameters against the number of inputs.
func (k *Krum) validateN(n int) error {
	if k.F < 0 {
		return fmt.Errorf("f = %d: %w", k.F, ErrBadParameter)
	}
	// The score sums over n − F − 2 neighbours; it must cover at least
	// one vector for the rule to discriminate at all.
	if n-k.F-2 < 1 {
		return fmt.Errorf("n = %d with f = %d leaves no neighbours (need n ≥ f+3): %w", n, k.F, ErrTooFewWorkers)
	}
	if k.Strict && n <= 2*k.F+2 {
		return fmt.Errorf("n = %d does not satisfy n > 2f+2 = %d: %w", n, 2*k.F+2, ErrTooFewWorkers)
	}
	return nil
}

// prepare validates the round's proposals against the rule parameters
// and returns the neighbour count n − F − 2 of the score sum.
func (k *Krum) prepare(ctx *RoundContext) (int, error) {
	vectors := ctx.Vectors()
	n := len(vectors)
	if n == 0 {
		return 0, ErrNoVectors
	}
	if err := k.validateN(n); err != nil {
		return 0, err
	}
	if _, err := checkVectors(vectors); err != nil {
		return 0, err
	}
	return n - k.F - 2, nil
}

// scoresInto writes the Krum score s(i) of every proposal into scores
// (length n), reusing the context's shared distance matrix and a pooled
// selection heap.
func (k *Krum) scoresInto(ctx *RoundContext, scores []float64) error {
	neighbours, err := k.prepare(ctx)
	if err != nil {
		return err
	}
	n := ctx.N()
	dm := ctx.Distances()
	scratch := vec.GetFloats(neighbours)
	defer vec.PutFloats(scratch)
	for i := 0; i < n; i++ {
		scores[i] = dm.SumKSmallestExcludingSelf(i, neighbours, scratch)
	}
	return nil
}

// Scores returns the Krum score s(i) for every proposed vector. The
// returned slice is freshly allocated.
func (k *Krum) Scores(vectors [][]float64) ([]float64, error) {
	scores := make([]float64, len(vectors))
	if err := k.scoresInto(NewRoundContext(vectors), scores); err != nil {
		return nil, err
	}
	return scores, nil
}

// SelectContext implements ContextSelector against a shared round.
func (k *Krum) SelectContext(ctx *RoundContext) ([]int, error) {
	scores := vec.GetFloats(ctx.N())
	defer vec.PutFloats(scores)
	if err := k.scoresInto(ctx, scores); err != nil {
		return nil, err
	}
	return []int{vec.Argmin(scores)}, nil
}

// Select implements Selector: it returns the index i* of the score
// minimiser (a single-element slice). Ties resolve to the smallest index
// because Argmin keeps the first minimum.
func (k *Krum) Select(vectors [][]float64) ([]int, error) {
	return k.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule: dst = V_{i*} with the score
// pass running over the shared distance matrix.
func (k *Krum) AggregateContext(dst []float64, ctx *RoundContext) error {
	if err := checkInputs(dst, ctx.Vectors()); err != nil {
		return err
	}
	sel, err := k.SelectContext(ctx)
	if err != nil {
		return err
	}
	copy(dst, ctx.Vectors()[sel[0]])
	return nil
}

// Aggregate implements Rule: dst = V_{i*}.
func (k *Krum) Aggregate(dst []float64, vectors [][]float64) error {
	return k.AggregateContext(dst, NewRoundContext(vectors))
}

// MultiKrum is the m-Krum variant discussed in the full version of the
// paper (and in the Multi-Krum experiments, Figure 6 there): it averages
// the m proposed vectors with the smallest Krum scores, interpolating
// between Krum (m = 1, maximal resilience) and plain averaging (m = n,
// fastest convergence, no resilience).
type MultiKrum struct {
	// F is the declared number of Byzantine workers.
	F int
	// M is the number of lowest-score vectors averaged; it must satisfy
	// 1 ≤ M ≤ n at aggregation time. The selected set retains the
	// resilience guarantee as long as it cannot be majority-captured,
	// i.e. for M ≤ n − f in the regime n > 2f + 2.
	M int
	// Strict has the same meaning as Krum.Strict.
	Strict bool
}

// NewMultiKrum returns an m-Krum rule tolerating f Byzantine workers.
func NewMultiKrum(f, m int) *MultiKrum { return &MultiKrum{F: f, M: m} }

var (
	_ Rule            = (*MultiKrum)(nil)
	_ Selector        = (*MultiKrum)(nil)
	_ ContextRule     = (*MultiKrum)(nil)
	_ ContextSelector = (*MultiKrum)(nil)
)

// Name implements Rule.
func (mk *MultiKrum) Name() string { return fmt.Sprintf("multikrum(m=%d)", mk.M) }

// SelectContext implements ContextSelector against a shared round.
func (mk *MultiKrum) SelectContext(ctx *RoundContext) ([]int, error) {
	if mk.M < 1 {
		return nil, fmt.Errorf("m = %d (need m ≥ 1): %w", mk.M, ErrBadParameter)
	}
	if mk.M > ctx.N() {
		return nil, fmt.Errorf("m = %d exceeds n = %d: %w", mk.M, ctx.N(), ErrBadParameter)
	}
	inner := Krum{F: mk.F, Strict: mk.Strict}
	scores := vec.GetFloats(ctx.N())
	defer vec.PutFloats(scores)
	if err := inner.scoresInto(ctx, scores); err != nil {
		return nil, err
	}
	return vec.KSmallestIndices(scores, mk.M), nil
}

// Select returns the indices of the M smallest-score vectors ordered by
// (score, index).
func (mk *MultiKrum) Select(vectors [][]float64) ([]int, error) {
	return mk.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule: dst = (1/M)·Σ V_i over the
// selected set, scored on the shared distance matrix.
func (mk *MultiKrum) AggregateContext(dst []float64, ctx *RoundContext) error {
	if err := checkInputs(dst, ctx.Vectors()); err != nil {
		return err
	}
	sel, err := mk.SelectContext(ctx)
	if err != nil {
		return err
	}
	vec.MeanOf(dst, ctx.Vectors(), sel)
	return nil
}

// Aggregate implements Rule: dst = (1/M)·Σ V_i over the selected set.
func (mk *MultiKrum) Aggregate(dst []float64, vectors [][]float64) error {
	return mk.AggregateContext(dst, NewRoundContext(vectors))
}
