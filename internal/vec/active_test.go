package vec

import (
	"sort"
	"testing"
)

func TestActiveSetDeactivateAndCount(t *testing.T) {
	rng := NewRNG(1)
	vs := make([][]float64, 6)
	for i := range vs {
		vs[i] = rng.NewNormal(4, 0, 1)
	}
	a := NewActiveSet(NewDistanceMatrix(vs))
	if a.Count() != 6 {
		t.Fatalf("count = %d, want 6", a.Count())
	}
	a.Deactivate(2)
	a.Deactivate(2) // idempotent
	a.Deactivate(5)
	if a.Count() != 4 {
		t.Fatalf("count = %d, want 4", a.Count())
	}
	if a.Alive(2) || a.Alive(5) || !a.Alive(0) {
		t.Fatalf("alive flags wrong: %v %v %v", a.Alive(2), a.Alive(5), a.Alive(0))
	}
	got := a.AppendAlive(nil)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("AppendAlive = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendAlive = %v, want %v", got, want)
		}
	}
}

// TestActiveSetSumKSmallestMatchesBruteForce checks the masked score sum
// against a direct sort over the surviving distances.
func TestActiveSetSumKSmallestMatchesBruteForce(t *testing.T) {
	rng := NewRNG(2)
	const n, d = 9, 5
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	m := NewDistanceMatrix(vs)
	a := NewActiveSet(m)
	a.Deactivate(3)
	a.Deactivate(7)
	scratch := make([]float64, n)
	for i := 0; i < n; i++ {
		if !a.Alive(i) {
			continue
		}
		var surviving []float64
		for j := 0; j < n; j++ {
			if j == i || !a.Alive(j) {
				continue
			}
			surviving = append(surviving, m.At(i, j))
		}
		sort.Float64s(surviving)
		for k := 0; k <= len(surviving); k++ {
			var want float64
			for _, v := range surviving[:k] {
				want += v
			}
			// The heap accumulates in a different order than the
			// sorted reference, so compare with a float tolerance.
			got := a.SumKSmallest(i, k, scratch)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("SumKSmallest(%d, %d) = %v, want %v", i, k, got, want)
			}
		}
	}
}

// TestActiveSetMatchesUnmaskedMatrix: with nothing deactivated the masked
// sum must agree bit for bit with the DistanceMatrix method.
func TestActiveSetMatchesUnmaskedMatrix(t *testing.T) {
	rng := NewRNG(3)
	const n, d = 11, 8
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	m := NewDistanceMatrix(vs)
	a := NewActiveSet(m)
	scratch := make([]float64, n)
	scratch2 := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 1; k < n-1; k++ {
			if got, want := a.SumKSmallest(i, k, scratch), m.SumKSmallestExcludingSelf(i, k, scratch2); got != want {
				t.Fatalf("masked(%d,%d) = %v, unmasked = %v", i, k, got, want)
			}
		}
	}
}

func TestFloatPoolRoundTrip(t *testing.T) {
	s := GetFloats(16)
	if len(s) != 16 {
		t.Fatalf("len = %d, want 16", len(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	PutFloats(s)
	s2 := GetFloats(8)
	if len(s2) != 8 {
		t.Fatalf("len = %d, want 8", len(s2))
	}
	PutFloats(s2)
	PutFloats(nil) // must not panic
}
