package vec

import (
	"math"
	"testing"
)

// The cross-tier differential matrix. Every WITHIN-tier guarantee the
// package makes (blocked ≡ oracle within the principled band, parallel
// ≡ serial bit for bit, incremental ≡ rebuild bit for bit) must hold
// under each available tier — the
// battery here forces each tier in turn and re-proves them. ACROSS
// tiers only norm-relative agreement is promised (gram.go contract),
// and the agreement tests below pin exactly that: adversarial
// magnitudes stay inside the shared error band, and non-finite inputs
// classify identically (a NaN cell under one tier is a NaN cell under
// every tier) so selections cannot diverge on poisoned rounds.

// TestPropertyBatteryPerTier re-runs the within-tier determinism
// battery once per available tier.
func TestPropertyBatteryPerTier(t *testing.T) {
	for _, tier := range AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := NewRNG(uint64(1000 + tier))

			// Blocked ≡ oracle + invariants, straddling naiveDimMax, both
			// tile tails, and the gramBlock depth seam (the last shape
			// walks three k-blocks, with an odd n so the trailing row is
			// covered there too).
			for _, shape := range []struct{ n, d int }{{1, 1}, {3, 17}, {7, 33}, {9, 64}, {12, 129}, {40, 251}, {7, 2*gramBlock + 51}} {
				vs := adversarialVectors(rng, shape.n, shape.d)
				m := NewDistanceMatrix(vs)
				checkMatrixInvariants(t, m)
				checkAgainstOracle(t, m, vs)

				// Parallel ≡ serial, bit for bit.
				for _, workers := range []int{2, 5} {
					par := newShell(vs).buildOn(workers)
					for i := 0; i < shape.n; i++ {
						for j := 0; j < shape.n; j++ {
							if m.At(i, j) != par.At(i, j) {
								t.Fatalf("n=%d d=%d workers=%d: parallel cell (%d,%d) differs: %v vs %v",
									shape.n, shape.d, workers, i, j, par.At(i, j), m.At(i, j))
							}
						}
					}
				}

				// Incremental ≡ rebuild, bit for bit, after a mutation burst.
				shadow := CloneAll(vs)
				changed := make([]int, 0, shape.n)
				for step := 0; step < 3; step++ {
					i := rng.Intn(shape.n)
					shadow[i] = adversarialVectors(rng, 1, shape.d)[0]
					changed = append(changed, i)
				}
				m.UpdateRows(changed, shadow)
				fresh := NewDistanceMatrix(shadow)
				for i := 0; i < shape.n; i++ {
					for j := 0; j < shape.n; j++ {
						if m.At(i, j) != fresh.At(i, j) {
							t.Fatalf("n=%d d=%d: incremental cell (%d,%d) diverged from rebuild: %v vs %v",
								shape.n, shape.d, i, j, m.At(i, j), fresh.At(i, j))
						}
					}
				}
			}
		})
	}
}

// TestBuildBlockedMatchesRowPair pins the walker to the definition
// directly, one pair at a time, on adversarial magnitudes: at
// multi-block dimensions (and at naiveDimMax, the exact kernel's last)
// every cell the walker produces — full build, fanned-out build (three
// concurrent shares, and each strided share of the row pairs run on its
// own), and UpdateRows — must be bit-identical to specCell(vᵢ, vⱼ) under
// every tier. Each pair's lanes consume the same k-sequence whichever
// tile, row-set or partition covered it, so any difference is a seam
// bug.
func TestBuildBlockedMatchesRowPair(t *testing.T) {
	for _, tier := range AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := NewRNG(uint64(4000 + tier))
			for _, shape := range []struct{ n, d int }{{5, naiveDimMax}, {2, gramBlock + 1}, {9, 2 * gramBlock}, {12, 2*gramBlock + 1807}} {
				vs := adversarialVectors(rng, shape.n, shape.d)
				check := func(what string, m *DistanceMatrix, vs [][]float64) {
					t.Helper()
					for i := range vs {
						for j := range vs {
							want := 0.0
							if i != j {
								want = specCell(tier.Order(), vs[i], vs[j])
							}
							if m.At(i, j) != want {
								t.Fatalf("n=%d d=%d %s cell (%d,%d): walker %v ≠ specCell %v",
									shape.n, shape.d, what, i, j, m.At(i, j), want)
							}
						}
					}
				}
				check("build", NewDistanceMatrix(vs), vs)
				check("fanned-out build", newShell(vs).buildOn(3), vs)
				// The same three shares one after another, in the
				// builder's two phases (assembly reads norms every share
				// staged): the schedule no scheduler would pick.
				if shares := newShell(vs); shares.gram {
					for w := 0; w < 3; w++ {
						shares.stage(stridedRows(shape.n, w, 3), true)
					}
					for w := 0; w < 3; w++ {
						shares.assemble(stridedRows(shape.n, w, 3), true)
					}
					check("strided shares", shares, vs)
				}

				// Update one row, a pair, and an odd batch with a repeat.
				m := NewDistanceMatrix(vs)
				shadow := CloneAll(vs)
				for _, changed := range [][]int{{shape.n - 1}, {0, 1}, {1, 0, 1, shape.n / 2}} {
					for _, i := range changed {
						shadow[i] = adversarialVectors(rng, 1, shape.d)[0]
					}
					m.UpdateRows(changed, shadow)
					check("update", m, shadow)
				}
			}
		})
	}
}

// crossTierMatrices builds the SAME vector set under every available
// tier and returns the per-tier matrices (nil when only one tier
// exists — then the test is vacuous and skipped by the caller).
func crossTierMatrices(t *testing.T, vs [][]float64) map[Tier]*DistanceMatrix {
	t.Helper()
	out := make(map[Tier]*DistanceMatrix, len(AvailableTiers()))
	underEachTier(t, func(tier Tier) { out[tier] = NewDistanceMatrix(CloneAll(vs)) })
	return out
}

// TestCrossTierAgreement is the cross-tier half of the contract: on
// adversarial magnitudes (±1e8 and ±1e-8 entries mixed with unit
// noise), matrices built under different tiers agree cell-for-cell
// within the norm-relative band of gramTol — the SAME band each tier
// individually owes the subtract-square oracle, so tiers can never
// drift further from each other than either may drift from the truth.
func TestCrossTierAgreement(t *testing.T) {
	tiers := AvailableTiers()
	if len(tiers) < 2 {
		t.Skip("single-tier platform: cross-tier agreement is vacuous")
	}
	rng := NewRNG(31337)
	for _, shape := range []struct{ n, d int }{{2, 1}, {5, 7}, {9, 33}, {17, 129}, {40, 1000}, {5, 2*gramBlock + 13}} {
		vs := adversarialVectors(rng, shape.n, shape.d)
		ms := crossTierMatrices(t, vs)
		base := ms[tiers[0]]
		for _, tier := range tiers[1:] {
			m := ms[tier]
			for i := 0; i < shape.n; i++ {
				for j := 0; j < shape.n; j++ {
					a, b := base.At(i, j), m.At(i, j)
					if tol := gramTol(base, i, j); math.Abs(a-b) > tol {
						t.Fatalf("n=%d d=%d cell (%d,%d): %v under %v vs %v under %v (|Δ| = %g > tol %g)",
							shape.n, shape.d, i, j, a, tiers[0], b, tier, math.Abs(a-b), tol)
					}
				}
			}
		}
	}
}

// TestCrossTierPair2BitIdentical pins the deliberate aliasing: go and
// sse2 share the pair2 order, so their matrices must be BIT-identical —
// this is what justifies the two tiers sharing one store-key salt.
func TestCrossTierPair2BitIdentical(t *testing.T) {
	if !TierAvailable(TierSSE2) {
		t.Skip("no sse2 tier on this platform")
	}
	rng := NewRNG(555)
	vs := adversarialVectors(rng, 23, 137)
	ms := crossTierMatrices(t, vs)
	g, s := ms[TierGo], ms[TierSSE2]
	for i := 0; i < 23; i++ {
		for j := 0; j < 23; j++ {
			if g.At(i, j) != s.At(i, j) {
				t.Fatalf("cell (%d,%d): go %v ≠ sse2 %v — pair2 tiers must be bit-identical or the shared store salt is wrong",
					i, j, g.At(i, j), s.At(i, j))
			}
		}
	}
}

// TestCrossTierNonFiniteClassification: rows carrying NaN or ±Inf
// (Byzantine payloads) must classify identically under every tier —
// IEEE-754 makes NaN absorbing and Inf−Inf NaN in EVERY accumulation
// order, so a poisoned cell is poisoned under all tiers and selection
// cannot diverge across a heterogeneous fleet. Compared via
// Dist2 and raw cell values (checkMatrixInvariants would reject the
// NaNs by design, so this test reads cells directly).
func TestCrossTierNonFiniteClassification(t *testing.T) {
	tiers := AvailableTiers()
	if len(tiers) < 2 {
		t.Skip("single-tier platform: cross-tier agreement is vacuous")
	}
	rng := NewRNG(2718)
	const n, d = 8, 37
	vs := adversarialVectors(rng, n, d)
	vs[1][3] = math.NaN()
	vs[2][0] = math.Inf(1)
	vs[3][d-1] = math.Inf(-1)
	vs[4][5] = math.Inf(1)
	vs[4][6] = math.Inf(-1) // mixed ±Inf in one row → NaN at reduction
	classify := func(x float64) int {
		switch {
		case math.IsNaN(x):
			return 0
		case math.IsInf(x, 0):
			return 1
		}
		return 2
	}
	ms := crossTierMatrices(t, vs)
	base := ms[tiers[0]]
	for _, tier := range tiers[1:] {
		m := ms[tier]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if classify(base.At(i, j)) != classify(m.At(i, j)) {
					t.Fatalf("cell (%d,%d): class %d (%v) under %v vs class %d (%v) under %v",
						i, j, classify(base.At(i, j)), base.At(i, j), tiers[0],
						classify(m.At(i, j)), m.At(i, j), tier)
				}
			}
		}
	}
}
