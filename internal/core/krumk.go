package core

import (
	"fmt"

	"krum/internal/vec"
)

// KrumK is Krum at an explicit k, the ablation variant: the score sums
// the K smallest squared distances instead of the paper's n − f − 2
// (the same scorer as Krum). It exists to demonstrate WHY the paper picks
// n − f − 2 (krumk_test.go pins each case below):
//
//   - K too large (→ n − 1) degenerates to the medoid criterion, which
//     Figure 2's collusion captures: remote decoys re-enter the sums.
//   - K too small discriminates on too few neighbours, raising the
//     variance of the selection (and K ≤ f lets a clique of f colluders
//     form a mutual-neighbour cluster whose internal distances are
//     zero, winning the argmin).
//   - K = n − f − 2 is the largest count guaranteed to consist of
//     correct vectors' distances only, up to the two slots the proof
//     reserves.
//
// Not part of the paper's API; use Krum for real deployments.
type KrumK struct {
	// K is the neighbour count (1 ≤ K ≤ n−2 at aggregation time).
	K int
}

var (
	_ Rule            = (*KrumK)(nil)
	_ Selector        = (*KrumK)(nil)
	_ ContextRule     = (*KrumK)(nil)
	_ ContextSelector = (*KrumK)(nil)
)

// Name implements Rule.
func (k *KrumK) Name() string { return fmt.Sprintf("krumk(k=%d)", k.K) }

// SelectContext implements ContextSelector against a shared round.
func (k *KrumK) SelectContext(ctx *RoundContext) ([]int, error) {
	vectors := ctx.Vectors()
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoVectors
	}
	if k.K < 1 || k.K > n-2 {
		return nil, fmt.Errorf("k = %d with n = %d (need 1 ≤ k ≤ n−2): %w", k.K, n, ErrBadParameter)
	}
	if _, err := checkVectors(vectors); err != nil {
		return nil, err
	}
	scores := vec.GetFloats(n)
	defer vec.PutFloats(scores)
	return []int{krumScores(ctx.Distances(), k.K, nil, scores)}, nil
}

// Select implements Selector.
func (k *KrumK) Select(vectors [][]float64) ([]int, error) {
	return k.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule.
func (k *KrumK) AggregateContext(dst []float64, ctx *RoundContext) error {
	sel, err := k.SelectContext(ctx)
	return aggregateSelection(dst, ctx.Vectors(), sel, err, false)
}

// Aggregate implements Rule.
func (k *KrumK) Aggregate(dst []float64, vectors [][]float64) error {
	return k.AggregateContext(dst, NewRoundContext(vectors))
}
