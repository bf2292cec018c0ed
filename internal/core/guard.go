package core

import (
	"fmt"

	"krum/internal/vec"
)

// FiniteGuard wraps any Rule with a pre-filter that neutralizes
// non-finite proposals (NaN or ±Inf coordinates) by replacing them with
// zero vectors before aggregation.
//
// Rationale: the paper's model lets a Byzantine worker propose ANY
// vector, including NaN — and a single NaN poisons every Euclidean
// distance it touches and every average it enters. The Krum family,
// Bulyan and MinimalDiameter rank a NaN score after +Inf (vec.Less), so
// they never select such a proposal; the averaging rules, Medoid (whose
// score sums every distance) and the coordinate-wise rules have no such
// ordering to fall back on. A real parameter server must not let one
// malformed message reach the update; a zero vector is the canonical
// harmless proposal (a no-op update direction). The
// replacement preserves n, so the wrapped rule's (α, f) guarantee is
// unaffected: a zeroed proposal is just another Byzantine vector, one
// that happens to be benign.
type FiniteGuard struct {
	// Inner is the wrapped rule; it must be non-nil.
	Inner Rule
}

var (
	_ Rule        = FiniteGuard{}
	_ ContextRule = FiniteGuard{}
)

// sanitize returns the proposals with every non-finite vector replaced
// by a shared zero vector of dimension dim, copying the slice only when
// a replacement is needed (copy-on-write: the caller's slice is never
// mutated). The second result reports whether anything was replaced.
func sanitize(vectors [][]float64, dim int) ([][]float64, bool) {
	sanitized := vectors
	var replaced []float64 // shared zero vector, allocated lazily
	for i, v := range vectors {
		if vec.AllFinite(v) {
			continue
		}
		if replaced == nil {
			sanitized = append([][]float64(nil), vectors...)
			replaced = make([]float64, dim)
		}
		sanitized[i] = replaced
	}
	return sanitized, replaced != nil
}

// Name implements Rule.
func (g FiniteGuard) Name() string {
	if g.Inner == nil {
		return "finiteguard(nil)"
	}
	return "finiteguard(" + g.Inner.Name() + ")"
}

// AggregateContext implements ContextRule: when no proposal needs
// replacement the inner rule runs against the SHARED context (and its
// memoized distance matrix); otherwise a context derived over the
// sanitized view is used, since the shared matrix no longer describes
// the sanitized proposals.
func (g FiniteGuard) AggregateContext(dst []float64, ctx *RoundContext) error {
	if g.Inner == nil {
		return fmt.Errorf("nil inner rule: %w", ErrBadParameter)
	}
	if err := checkInputs(dst, ctx.Vectors()); err != nil {
		return err
	}
	sanitized, changed := sanitize(ctx.Vectors(), len(dst))
	inner := ctx
	if changed {
		inner = ctx.derive(sanitized)
	}
	if err := AggregateContext(g.Inner, dst, inner); err != nil {
		return fmt.Errorf("guarded %s: %w", g.Inner.Name(), err)
	}
	return nil
}

// Aggregate implements Rule.
func (g FiniteGuard) Aggregate(dst []float64, vectors [][]float64) error {
	return g.AggregateContext(dst, NewRoundContext(vectors))
}

// SelectContext implements ContextSelector semantics when the inner
// rule is a Selector, with the same context reuse as AggregateContext.
// A guard selects only when its inner rule does: over any other rule it
// fails, and distsgd does not track its selection.
func (g FiniteGuard) SelectContext(ctx *RoundContext) ([]int, error) {
	sel, ok := g.Inner.(Selector)
	if !ok {
		return nil, fmt.Errorf("inner rule %T is not a Selector: %w", g.Inner, ErrBadParameter)
	}
	dim := 0
	if ctx.N() > 0 {
		dim = len(ctx.Vectors()[0])
	}
	sanitized, changed := sanitize(ctx.Vectors(), dim)
	inner := ctx
	if changed {
		inner = ctx.derive(sanitized)
	}
	return SelectContext(sel, inner)
}

// Select implements Selector when the inner rule does, applying the
// same sanitization so selection histograms stay meaningful under
// malformed input.
func (g FiniteGuard) Select(vectors [][]float64) ([]int, error) {
	return g.SelectContext(NewRoundContext(vectors))
}
