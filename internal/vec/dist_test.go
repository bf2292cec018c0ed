package vec

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistanceMatrixBasic(t *testing.T) {
	vs := [][]float64{{0, 0}, {3, 4}, {0, 1}}
	m := NewDistanceMatrix(vs)
	if m.N() != 3 {
		t.Fatalf("N = %d, want 3", m.N())
	}
	wants := [][3]float64{
		{0, 25, 1},
		{25, 0, 18},
		{1, 18, 0},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := m.At(i, j); math.Abs(got-wants[i][j]) > 1e-12 {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, wants[i][j])
			}
		}
	}
}

func TestDistanceMatrixSymmetryProperty(t *testing.T) {
	f := func(seed uint64, n8, d8 uint8) bool {
		n := int(n8%8) + 2
		d := int(d8%5) + 1
		rng := NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(d, 0, 1)
		}
		m := NewDistanceMatrix(vs)
		for i := 0; i < n; i++ {
			if m.At(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if m.At(i, j) != m.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSumKSmallestExcludingSelf(t *testing.T) {
	vs := [][]float64{{0}, {1}, {3}, {10}}
	m := NewDistanceMatrix(vs)
	scratch := make([]float64, 4)
	// Distances² from vector 0: 1, 9, 100.
	tests := []struct {
		k    int
		want float64
	}{
		{k: 0, want: 0},
		{k: 1, want: 1},
		{k: 2, want: 10},
		{k: 3, want: 110},
	}
	for _, tt := range tests {
		if got := m.SumKSmallestExcludingSelf(0, tt.k, scratch); got != tt.want {
			t.Errorf("k=%d: got %v, want %v", tt.k, got, tt.want)
		}
	}
}

// Property: SumKSmallestExcludingSelf agrees with a sort-based oracle.
func TestSumKSmallestMatchesSortOracle(t *testing.T) {
	f := func(seed uint64, n8, k8 uint8) bool {
		n := int(n8%10) + 3
		k := int(k8) % n
		rng := NewRNG(seed)
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = rng.NewNormal(4, 0, 10)
		}
		m := NewDistanceMatrix(vs)
		scratch := make([]float64, k+1)
		for i := 0; i < n; i++ {
			got := m.SumKSmallestExcludingSelf(i, k, scratch)
			row := append([]float64(nil), m.Row(i)...)
			row = append(row[:i], row[i+1:]...)
			sort.Float64s(row)
			var want float64
			for _, v := range row[:k] {
				want += v
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSumKSmallestBoundaries pins the selection boundaries: k = 0
// (empty selection), k = n−1 (every other vector, exactly the Krum sum
// at f = −1), k beyond the candidate count (graceful saturation), and
// duplicate distances (ties must not double- or under-count).
func TestSumKSmallestBoundaries(t *testing.T) {
	// Distances² from vector 0: 1, 1, 4, 4, 9 — duplicates on purpose.
	vs := [][]float64{{0}, {1}, {-1}, {2}, {-2}, {3}}
	n := len(vs)
	m := NewDistanceMatrix(vs)
	scratch := make([]float64, n)
	tests := []struct {
		k    int
		want float64
	}{
		{k: 0, want: 0},
		{k: -3, want: 0},       // negative k behaves like zero
		{k: 1, want: 1},        // one of the tied pair
		{k: 2, want: 2},        // both tied values, not the same one twice
		{k: 3, want: 6},        // 1+1+4 crosses a tie boundary
		{k: 4, want: 10},       // 1+1+4+4
		{k: n - 1, want: 19},   // all five others
		{k: n, want: 19},       // k beyond the candidate count saturates
		{k: 100 * n, want: 19}, // far beyond
	}
	for _, tt := range tests {
		if got := m.SumKSmallestExcludingSelf(0, tt.k, scratch); got != tt.want {
			t.Errorf("k=%d: got %v, want %v", tt.k, got, tt.want)
		}
	}
	// The self-distance stays excluded even when every candidate is a
	// duplicate of it.
	dup := NewDistanceMatrix([][]float64{{0}, {0}, {0}})
	if got := dup.SumKSmallestExcludingSelf(1, 2, scratch); got != 0 {
		t.Errorf("all-duplicate matrix: got %v, want 0", got)
	}
	// n = 1: no candidates at all.
	single := NewDistanceMatrix([][]float64{{5}})
	if got := single.SumKSmallestExcludingSelf(0, 1, scratch); got != 0 {
		t.Errorf("single-vector matrix: got %v, want 0", got)
	}
	// All-equal vectors: every pairwise distance is an exact zero tie;
	// every k must sum to 0 from every viewpoint (scores then tie
	// completely and selection is decided by index alone).
	allEq := NewDistanceMatrix([][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}})
	for i := 0; i < 4; i++ {
		for k := 0; k <= 5; k++ {
			if got := allEq.SumKSmallestExcludingSelf(i, k, scratch); got != 0 {
				t.Errorf("all-equal matrix: i=%d k=%d got %v, want 0", i, k, got)
			}
		}
	}
	// Near-threshold duplicates: the k-th and (k+1)-th smallest differ
	// by one ulp; the heap must keep exactly the k smallest, never the
	// near-tie above the boundary.
	lo := 4.0
	hi := math.Nextafter(lo, math.Inf(1))
	row := []float64{0, lo, hi, lo, hi, 100}
	if got := sumKSmallest(row, 0, 2, scratch); got != lo+lo {
		t.Errorf("ulp boundary k=2: got %v, want %v", got, lo+lo)
	}
	if got := sumKSmallest(row, 0, 3, scratch); got != lo+lo+hi {
		t.Errorf("ulp boundary k=3: got %v, want %v", got, lo+lo+hi)
	}
}

func TestKSmallestIndices(t *testing.T) {
	vals := []float64{5, 1, 3, 1, 0}
	tests := []struct {
		name string
		k    int
		want []int
	}{
		{name: "k=0", k: 0, want: nil},
		{name: "k=2 no skip", k: 2, want: []int{4, 1}},
		{name: "tie broken by index", k: 3, want: []int{4, 1, 3}},
		{name: "k larger than n", k: 10, want: []int{4, 1, 3, 2, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := KSmallestIndices(vals, tt.k)
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// Property: KSmallestIndices returns indices whose values are the k
// smallest in multiset terms.
func TestKSmallestIndicesOracle(t *testing.T) {
	f := func(seed uint64, n8, k8 uint8) bool {
		n := int(n8%12) + 1
		k := int(k8)%n + 1
		rng := NewRNG(seed)
		vals := rng.NewNormal(n, 0, 5)
		got := KSmallestIndices(vals, k)
		if len(got) != k {
			return false
		}
		gotVals := make([]float64, k)
		for i, idx := range got {
			gotVals[i] = vals[idx]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i := 0; i < k; i++ {
			if gotVals[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatrixParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(42)
	for _, n := range []int{2, 3, 7, 16} {
		for _, workers := range []int{0, 1, 2, 8, 100} {
			vs := make([][]float64, n)
			for i := range vs {
				vs[i] = rng.NewNormal(24, 0, 3)
			}
			serial := NewDistanceMatrix(vs)
			par := newShell(vs).buildOn(workers)
			if par.N() != serial.N() {
				t.Fatalf("n=%d workers=%d: N mismatch", n, workers)
			}
			for i := 0; i < n; i++ {
				if !ApproxEqual(par.Row(i), serial.Row(i), 0) {
					t.Fatalf("n=%d workers=%d: row %d differs", n, workers, i)
				}
			}
		}
	}
}

// TestSharesFromShape pins the one decision build makes: how many
// goroutines a shape is worth on a host running procs of them — both
// sides of it, at the tracked workloads' shapes.
func TestSharesFromShape(t *testing.T) {
	for _, c := range []struct{ n, d, procs, want int }{
		{40, 10_000, 1, 1}, {40, 10_000, 2, 2}, {40, 10_000, 8, 3}, // 7.8 Mflop: the work cap binds at 3
		{20, 12_826, 1, 1}, {20, 12_826, 8, 1}, {20, 12_826, 64, 1}, // 2.4 Mflop: one share's worth
		{1000, 1000, 2, 2}, {1000, 1000, 8, 8}, // procs binds
		{6, 1 << 20, 64, 3},                     // the (n+1)/2 row pairs bind
		{1000, naiveDimMax, 8, 1}, {9, 6, 8, 1}, // exact kernel
		{0, 0, 8, 1}, {1, 1 << 20, 8, 1}, {3, 1 << 20, 8, 1}, // n < 4
	} {
		vs := make([][]float64, c.n)
		row := make([]float64, c.d)
		for i := range vs {
			vs[i] = row
		}
		if got := newShell(vs).shares(c.procs); got != c.want {
			t.Errorf("n=%d d=%d procs=%d: shares = %d, want %d", c.n, c.d, c.procs, got, c.want)
		}
	}
}

func TestDistanceMatrixParallelSingleVector(t *testing.T) {
	m := newShell([][]float64{{1, 2}}).buildOn(4)
	if m.N() != 1 || m.At(0, 0) != 0 {
		t.Error("single-vector matrix wrong")
	}
}
