package core

import (
	"fmt"
	"sort"

	"krum/internal/vec"
)

// Bulyan is the authors' follow-up defense (El Mhamdi, Guerraoui,
// Rouault — "The Hidden Vulnerability of Distributed Learning in
// Byzantium", ICML 2018), included here as the paper's natural
// extension: Krum alone can be steered by attacks hiding in a single
// coordinate of a high-dimensional vector; Bulyan closes that gap.
//
// It proceeds in two phases:
//
//  1. Selection: run Krum repeatedly, each time moving the winner into
//     a selection set S and removing it from the pool, until
//     |S| = θ = n − 2f.
//  2. Aggregation: output the coordinate-wise β-trimmed mean of S with
//     β = θ − 2f, i.e. for each coordinate average the β values
//     closest to the coordinate median.
//
// The iterated-Krum phase is memoized: the O(n²·d) pairwise distance
// matrix (Lemma 4.1) is built exactly once per aggregation, and each of
// the θ rounds only masks the previous winner out of the score sums
// with a vec.ActiveSet view — Θ(n²·d + θ·n²) total instead of the
// Θ(θ·n²·d) of rebuilding the pool every round. The selected index
// sequence is identical to the naive pool-rebuilding formulation.
//
// It requires n ≥ 4f + 3. Construct with NewBulyan.
type Bulyan struct {
	// F is the number of Byzantine workers tolerated.
	F int
}

// NewBulyan returns a Bulyan rule tolerating f Byzantine workers.
func NewBulyan(f int) *Bulyan { return &Bulyan{F: f} }

var (
	_ Rule            = (*Bulyan)(nil)
	_ Selector        = (*Bulyan)(nil)
	_ ContextRule     = (*Bulyan)(nil)
	_ ContextSelector = (*Bulyan)(nil)
)

// Name implements Rule.
func (b *Bulyan) Name() string { return "bulyan" }

// validate checks the n ≥ 4f + 3 requirement.
func (b *Bulyan) validate(n int) error {
	if b.F < 0 {
		return fmt.Errorf("f = %d: %w", b.F, ErrBadParameter)
	}
	if n < 4*b.F+3 {
		return fmt.Errorf("n = %d does not satisfy n ≥ 4f+3 = %d: %w", n, 4*b.F+3, ErrTooFewWorkers)
	}
	return nil
}

// SelectContext implements ContextSelector: the θ = n − 2f indices
// chosen by the memoized iterated-Krum phase, in selection order. The
// context's shared distance matrix is the only one ever built.
func (b *Bulyan) SelectContext(ctx *RoundContext) ([]int, error) {
	vectors := ctx.Vectors()
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoVectors
	}
	if err := b.validate(n); err != nil {
		return nil, err
	}
	if _, err := checkVectors(vectors); err != nil {
		return nil, err
	}
	theta := n - 2*b.F
	active := vec.NewActiveSet(ctx.Distances())
	scratch := vec.GetFloats(n)
	defer vec.PutFloats(scratch)
	selected := make([]int, 0, theta)
	for len(selected) < theta {
		m := active.Count()
		// Krum over the masked pool. The Krum score needs
		// m − f' − 2 ≥ 1 neighbours; near the end of the loop the pool
		// drops to 2f + 1 elements, so the effective tolerance f' is
		// clamped to m − 3. This is sound: winners already moved to S
		// only shrink the pool, never raise the number of Byzantine
		// proposals left in it.
		if m < 3 {
			// With one or two candidates the Krum score cannot
			// discriminate at all; take them in id order (the paper's
			// deterministic tie-break).
			selected = active.AppendAlive(selected)
			selected = selected[:theta]
			break
		}
		innerF := b.F
		if maxF := m - 3; innerF > maxF {
			innerF = maxF
		}
		neighbours := m - innerF - 2
		// Argmin over the active scores; iterating active indices in
		// ascending order with strict improvement reproduces the
		// smallest-id tie-break of footnote 3.
		best, bestScore := -1, 0.0
		for i := 0; i < n; i++ {
			if !active.Alive(i) {
				continue
			}
			s := active.SumKSmallest(i, neighbours, scratch)
			if best < 0 || s < bestScore {
				best, bestScore = i, s
			}
		}
		selected = append(selected, best)
		active.Deactivate(best)
	}
	return selected, nil
}

// Select implements Selector: the θ = n − 2f indices chosen by the
// iterated-Krum phase, in selection order.
func (b *Bulyan) Select(vectors [][]float64) ([]int, error) {
	return b.SelectContext(NewRoundContext(vectors))
}

// AggregateContext implements ContextRule: the coordinate-wise trimmed
// mean of the set selected on the shared distance matrix.
func (b *Bulyan) AggregateContext(dst []float64, ctx *RoundContext) error {
	vectors := ctx.Vectors()
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	selected, err := b.SelectContext(ctx)
	if err != nil {
		return err
	}
	theta := len(selected)
	beta := theta - 2*b.F
	if beta < 1 {
		// Unreachable given validate(), kept as a defensive guard.
		return fmt.Errorf("β = %d: %w", beta, ErrBadParameter)
	}
	type entry struct {
		val  float64
		dist float64
	}
	column := make([]entry, theta)
	vals := vec.GetFloats(theta)
	defer vec.PutFloats(vals)
	for j := range dst {
		for i, idx := range selected {
			vals[i] = vectors[idx][j]
		}
		med := medianOf(vals)
		for i, v := range vals {
			d := v - med
			if d < 0 {
				d = -d
			}
			column[i] = entry{val: v, dist: d}
		}
		sort.Slice(column, func(a, c int) bool { return column[a].dist < column[c].dist })
		var s float64
		for i := 0; i < beta; i++ {
			s += column[i].val
		}
		dst[j] = s / float64(beta)
	}
	return nil
}

// Aggregate implements Rule: the coordinate-wise trimmed mean of the
// selected set around the median.
func (b *Bulyan) Aggregate(dst []float64, vectors [][]float64) error {
	return b.AggregateContext(dst, NewRoundContext(vectors))
}

// medianOf returns the median of vals, which it leaves sorted.
func medianOf(vals []float64) float64 {
	sortColumn(vals)
	return medianOfSorted(vals)
}
