package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"krum/internal/vec"
)

// pinVectors is the fixed finite round TestSelectionBitsPinned scores:
// eleven proposals of four spreads, the last a copy of the fourth (a
// tied score). At d = 7 the distances come from the exact kernel, so
// every tier must give the same bits.
func pinVectors() [][]float64 {
	rng := vec.NewRNG(42)
	const n, d = 11, 7
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, float64(1+i%4))
	}
	vs[n-1] = vec.Clone(vs[3])
	return vs
}

// TestSelectionBitsPinned pins, under every available kernel tier, the
// bits of Krum.Scores and the selections of Krum, Multi-Krum, KrumK and
// Bulyan on one fixed finite round. The scores are sums in the heap's
// layout order, and at least one of them differs from the ascending sum
// of the same values, so a change to the heap's insertion or summation
// order shows here.
func TestSelectionBitsPinned(t *testing.T) {
	wantScores := []uint64{
		0x4062521370cb8646, 0x406704ee247999b0, 0x4071ecf9d7c14a96, 0x408f37f7e076deb1,
		0x4063f0fd8f02d2f3, 0x4071369443f52b2a, 0x406e9fa2efd33354, 0x4091d2a26248d5e0,
		0x40634011adf102be, 0x407a795194ec93c4, 0x408f37f7e076deb1,
	}
	wantSel := map[string][]int{
		"krum":           {0},
		"multikrum(m=5)": {0, 8, 4, 1, 6},
		"krumk(k=4)":     {8},
		"bulyan":         {0, 8, 4, 1, 6, 2, 3},
	}
	for _, tier := range vec.AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			restore, err := vec.SetKernelTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			vs := pinVectors()
			scores, err := NewKrum(2).Scores(vs)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range scores {
				if math.Float64bits(s) != wantScores[i] {
					t.Errorf("score %d = %#016x, want %#016x", i, math.Float64bits(s), wantScores[i])
				}
			}
			dm := vec.NewDistanceMatrix(vs)
			reordered := 0
			for i := range vs {
				row := slices.Delete(slices.Clone(dm.Row(i)), i, i+1)
				slices.Sort(row)
				var asc float64
				for _, v := range row[:len(vs)-4] {
					asc += v
				}
				if asc != scores[i] {
					reordered++
				}
			}
			if reordered == 0 {
				t.Error("every pinned score equals its ascending sum: the pin cannot see the summation order")
			}
			for _, r := range []interface {
				Rule
				Selector
			}{NewKrum(2), NewMultiKrum(2, 5), &KrumK{K: 4}, NewBulyan(2)} {
				got, err := r.Select(vs)
				if err != nil {
					t.Fatal(err)
				}
				if want := wantSel[r.Name()]; !slices.Equal(got, want) {
					t.Errorf("%s selected %v, want %v", r.Name(), got, want)
				}
			}
		})
	}
}

// nonFiniteRound is an n = 9 round of finite proposals around 1 with
// proposal pos set to payload: every coordinate when coords is 0, else
// the coordinates whose bit is set in coords.
func nonFiniteRound(seed uint64, pos int, payload float64, coords uint8) [][]float64 {
	const n, d = 9, 6
	rng := vec.NewRNG(seed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 1, 0.1)
	}
	for j := range vs[pos] {
		if coords == 0 || coords&(1<<j) != 0 {
			vs[pos][j] = payload
		}
	}
	return vs
}

// nonFiniteFailures runs every distance-based selection rule at
// n = 9, f = 2 over vs and describes each rule that selected proposal
// pos or produced a non-finite output. Medoid is not among them: its
// score sums every distance, so one non-finite proposal makes every
// score non-finite (see its doc comment). Bulyan runs at f = 1, the
// largest n ≥ 4f + 3 allows at n = 9.
func nonFiniteFailures(vs [][]float64, pos int) []string {
	const f = 2
	n := len(vs)
	var failures []string
	for _, r := range []interface {
		Rule
		Selector
	}{NewKrum(f), NewMultiKrum(f, 4), &KrumK{K: n - f - 2}, NewBulyan(1), NewMinimalDiameter(f)} {
		sel, err := r.Select(vs)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.Name(), err))
			continue
		}
		dst := make([]float64, len(vs[0]))
		if err := r.Aggregate(dst, vs); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.Name(), err))
			continue
		}
		if slices.Contains(sel, pos) || !vec.AllFinite(dst) {
			failures = append(failures, fmt.Sprintf("%s selected %v, output %v", r.Name(), sel, dst))
		}
	}
	return failures
}

// TestNonFiniteProposalNeverSelected: a NaN, +Inf or −Inf proposal —
// first, in the middle or last — is never selected by a distance-based
// selection rule, and the output stays finite. A NaN ranks after +Inf
// in every score comparison (vec.Less), so the one poisoned score is
// the last one, and the finite scores stay finite.
func TestNonFiniteProposalNeverSelected(t *testing.T) {
	for _, payload := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pos := range []int{0, 4, 8} {
			for _, failure := range nonFiniteFailures(nonFiniteRound(7, pos, payload, 0), pos) {
				t.Errorf("%v at %d: %s", payload, pos, failure)
			}
		}
	}
}

// FuzzSelectionNonFinite explores TestNonFiniteProposalNeverSelected's
// property over the honest proposals' seed, the position, the payload
// (NaN, +Inf, −Inf) and which of its coordinates carry it.
func FuzzSelectionNonFinite(f *testing.F) {
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0)) // NaN first
	f.Add(uint64(7), uint8(4), uint8(0), uint8(0)) // NaN in the middle
	f.Add(uint64(7), uint8(8), uint8(0), uint8(0)) // NaN last
	f.Add(uint64(3), uint8(2), uint8(1), uint8(4)) // +Inf in one coordinate
	f.Fuzz(func(t *testing.T, seed uint64, pos, kind, coords uint8) {
		payload := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[kind%3]
		p := int(pos % 9)
		for _, failure := range nonFiniteFailures(nonFiniteRound(seed, p, payload, coords%64), p) {
			t.Errorf("%v at %d (coords %#x): %s", payload, p, coords%64, failure)
		}
	})
}
