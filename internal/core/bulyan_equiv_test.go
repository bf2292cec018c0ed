package core

import (
	"fmt"
	"testing"

	"krum/internal/vec"
)

// bulyanSelectSeed is the seed (pre-memoization) formulation of the
// Bulyan selection phase, kept verbatim as the equivalence oracle: run
// Krum over a physically shrinking pool, rebuilding the distance matrix
// from scratch every pass (each pass is one round of e) — Θ(θ·n²·d).
func bulyanSelectSeed(e *Engine, f int, vectors [][]float64) ([]int, error) {
	n := len(vectors)
	if n == 0 {
		return nil, ErrNoVectors
	}
	if err := (&Bulyan{F: f}).validate(n); err != nil {
		return nil, err
	}
	theta := n - 2*f
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	pool := append([][]float64(nil), vectors...)
	selected := make([]int, 0, theta)
	for len(selected) < theta {
		if len(pool) < 3 {
			selected = append(selected, remaining...)
			selected = selected[:theta]
			break
		}
		innerF := f
		if maxF := len(pool) - 3; innerF > maxF {
			innerF = maxF
		}
		inner := Krum{F: innerF}
		sel, err := e.Select(&inner, pool)
		if err != nil {
			return nil, fmt.Errorf("iterated krum at |pool|=%d: %w", len(pool), err)
		}
		w := sel[0]
		selected = append(selected, remaining[w])
		pool = append(pool[:w], pool[w+1:]...)
		remaining = append(remaining[:w], remaining[w+1:]...)
	}
	return selected, nil
}

// TestBulyanMemoizedMatchesSeedSelection asserts the acceptance
// criterion: the memoized ActiveSet formulation selects the IDENTICAL
// index sequence as the seed pool-rebuilding implementation across
// randomized shapes, scales, and tie-heavy inputs.
func TestBulyanMemoizedMatchesSeedSelection(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := vec.NewRNG(seed)
		for _, f := range []int{0, 1, 2, 3} {
			n := 4*f + 3 + int(seed%4)
			for _, d := range []int{1, 6, 25} {
				vs := make([][]float64, n)
				for i := range vs {
					vs[i] = rng.NewNormal(d, 0, float64(1+seed%5))
				}
				// Duplicate a few vectors to exercise the tie-break
				// path (identical scores must resolve identically).
				if n > 4 {
					vs[n-1] = vec.Clone(vs[0])
					vs[n-2] = vec.Clone(vs[1])
				}
				b := NewBulyan(f)
				got, err := b.Select(vs)
				if err != nil {
					t.Fatalf("seed=%d f=%d n=%d d=%d: memoized: %v", seed, f, n, d, err)
				}
				want, err := bulyanSelectSeed(new(Engine), f, vs)
				if err != nil {
					t.Fatalf("seed=%d f=%d n=%d d=%d: reference: %v", seed, f, n, d, err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed=%d f=%d n=%d d=%d: got %v, want %v", seed, f, n, d, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed=%d f=%d n=%d d=%d: index %d: got %v, want %v", seed, f, n, d, i, got, want)
					}
				}
			}
		}
	}
}

// TestBulyanAggregateBuildsExactlyOneMatrix asserts the memoization
// contract directly: one full Aggregate (selection phase included)
// constructs exactly one distance matrix.
func TestBulyanAggregateBuildsExactlyOneMatrix(t *testing.T) {
	t.Parallel()
	rng := vec.NewRNG(7)
	const n, f, d = 15, 3, 40
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	dst := make([]float64, d)
	e := new(Engine)
	if err := e.Aggregate(NewBulyan(f), dst, vs); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Builds; got != 1 {
		t.Fatalf("aggregate built %d distance matrices, want exactly 1", got)
	}
	// The seed formulation built θ of them — make sure the oracle in
	// this test really is the expensive one.
	seed := new(Engine)
	if _, err := bulyanSelectSeed(seed, f, vs); err != nil {
		t.Fatal(err)
	}
	if got, theta := seed.Stats().Builds, uint64(n-2*f); got != theta {
		t.Fatalf("seed reference built %d matrices, want θ = %d", got, theta)
	}
}

// BenchmarkBulyanSelectMemoized vs ...SeedReference demonstrates the
// Θ(θ·n²·d) → Θ(n²·d + θ·n²) drop at the ISSUE's operating point.
func benchBulyanVectors(n, d int) [][]float64 {
	rng := vec.NewRNG(42)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
}

func BenchmarkBulyanSelectMemoized(b *testing.B) {
	const n, d = 40, 10000
	f := (n - 3) / 4
	vs := benchBulyanVectors(n, d)
	rule := NewBulyan(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rule.Select(vs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulyanSelectSeedReference(b *testing.B) {
	const n, d = 40, 10000
	f := (n - 3) / 4
	vs := benchBulyanVectors(n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bulyanSelectSeed(new(Engine), f, vs); err != nil {
			b.Fatal(err)
		}
	}
}
