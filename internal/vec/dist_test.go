package vec

import (
	"math"
	"slices"
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
		if got := SumKSmallest(m.Row(0), 0, nil, tt.k, scratch); got != tt.want {
			t.Errorf("k=%d: got %v, want %v", tt.k, got, tt.want)
		}
	}
}

// Property: SumKSmallest agrees with a sort-based oracle.
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
			got := SumKSmallest(m.Row(i), i, nil, k, scratch)
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
		if got := SumKSmallest(m.Row(0), 0, nil, tt.k, scratch); got != tt.want {
			t.Errorf("k=%d: got %v, want %v", tt.k, got, tt.want)
		}
	}
	// The self-distance stays excluded even when every candidate is a
	// duplicate of it.
	dup := NewDistanceMatrix([][]float64{{0}, {0}, {0}})
	if got := SumKSmallest(dup.Row(1), 1, nil, 2, scratch); got != 0 {
		t.Errorf("all-duplicate matrix: got %v, want 0", got)
	}
	// n = 1: no candidates at all.
	single := NewDistanceMatrix([][]float64{{5}})
	if got := SumKSmallest(single.Row(0), 0, nil, 1, scratch); got != 0 {
		t.Errorf("single-vector matrix: got %v, want 0", got)
	}
	// All-equal vectors: every pairwise distance is an exact zero tie;
	// every k must sum to 0 from every viewpoint (scores then tie
	// completely and selection is decided by index alone).
	allEq := NewDistanceMatrix([][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}})
	for i := 0; i < 4; i++ {
		for k := 0; k <= 5; k++ {
			if got := SumKSmallest(allEq.Row(i), i, nil, k, scratch); got != 0 {
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
	if got := SumKSmallest(row, 0, nil, 2, scratch); got != lo+lo {
		t.Errorf("ulp boundary k=2: got %v, want %v", got, lo+lo)
	}
	if got := SumKSmallest(row, 0, nil, 3, scratch); got != lo+lo+hi {
		t.Errorf("ulp boundary k=3: got %v, want %v", got, lo+lo+hi)
	}
}

// TestSumKSmallestMaskedMatchesSortOracle: the masked routine against
// a sort by Less over the surviving entries — random alive masks, every
// k from 0 to alive − 1, rows with ties, ±Inf and NaN. The heap sums in
// layout order and the oracle in ascending order, so finite sums agree
// to a tolerance and non-finite ones exactly (NaN with NaN). An all-true
// mask must give the unmasked call's bits.
func TestSumKSmallestMaskedMatchesSortOracle(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for seed := uint64(0); seed < 2000; seed++ {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(12)
		row := make([]float64, n)
		alive := make([]bool, n)
		for j := range row {
			switch r := rng.Intn(10); {
			case r < 2:
				row[j] = specials[rng.Intn(len(specials))]
			case r < 5:
				row[j] = float64(rng.Intn(3))
			default:
				row[j] = 10 * rng.Float64()
			}
			alive[j] = rng.Intn(4) > 0
		}
		skip := rng.Intn(n)
		alive[skip] = true
		allAlive := !slices.Contains(alive, false)
		var kept []float64
		for j, v := range row {
			if j != skip && alive[j] {
				kept = append(kept, v)
			}
		}
		slices.SortFunc(kept, func(a, b float64) int {
			switch {
			case Less(a, b):
				return -1
			case Less(b, a):
				return 1
			}
			return 0
		})
		scratch := make([]float64, n)
		for k := 0; k <= len(kept); k++ {
			var want float64
			for _, v := range kept[:k] {
				want += v
			}
			got := SumKSmallest(row, skip, alive, k, scratch)
			same := got == want || (math.IsNaN(got) && math.IsNaN(want))
			if !same && (math.IsInf(want, 0) || math.IsNaN(want) || math.Abs(got-want) > 1e-9*(1+math.Abs(want))) {
				t.Fatalf("seed %d: SumKSmallest(%v, skip %d, alive %v, k %d) = %v, sorted %v sums to %v", seed, row, skip, alive, k, got, kept, want)
			}
			if unmasked := SumKSmallest(row, skip, nil, k, scratch); allAlive && math.Float64bits(unmasked) != math.Float64bits(got) {
				t.Fatalf("seed %d: all-alive mask %v, unmasked %v", seed, got, unmasked)
			}
		}
	}
}

// TestActiveSetSumKSmallestMatchesBruteForce checks the score sum over
// an active set (Bulyan's shrinking pool, passed as the alive mask)
// against a direct sort over the surviving distances.
func TestActiveSetSumKSmallestMatchesBruteForce(t *testing.T) {
	rng := NewRNG(2)
	const n, d = 9, 5
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	m := NewDistanceMatrix(vs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	alive[3], alive[7] = false, false
	scratch := make([]float64, n)
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		var surviving []float64
		for j := 0; j < n; j++ {
			if j == i || !alive[j] {
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
			got := SumKSmallest(m.Row(i), i, alive, k, scratch)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("SumKSmallest(%d, %d) = %v, want %v", i, k, got, want)
			}
		}
	}
}

// TestActiveSetMatchesUnmaskedMatrix: with every index active the masked
// sum must agree bit for bit with the unmasked call.
func TestActiveSetMatchesUnmaskedMatrix(t *testing.T) {
	rng := NewRNG(3)
	const n, d = 11, 8
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	m := NewDistanceMatrix(vs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	scratch := make([]float64, n)
	scratch2 := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 1; k < n-1; k++ {
			got := SumKSmallest(m.Row(i), i, alive, k, scratch)
			want := SumKSmallest(m.Row(i), i, nil, k, scratch2)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("masked(%d,%d) = %v, unmasked = %v", i, k, got, want)
			}
		}
	}
}

func TestKSmallestIndices(t *testing.T) {
	vals := []float64{5, 1, 3, 1, 0}
	tests := []struct {
		name string
		vals []float64
		k    int
		want []int
	}{
		{name: "k=0", k: 0, want: nil},
		{name: "k=2 no skip", k: 2, want: []int{4, 1}},
		{name: "tie broken by index", k: 3, want: []int{4, 1, 3}},
		{name: "k larger than n", k: 10, want: []int{4, 1, 3, 2, 0}},
		{name: "NaN ranks after +Inf", vals: []float64{math.NaN(), math.Inf(1), 1, math.NaN(), 0}, k: 4, want: []int{4, 2, 1, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.vals == nil {
				tt.vals = vals
			}
			got := KSmallestIndices(tt.vals, tt.k)
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

// TestMultiplyAddsClosedForm is Lemma 4.1 as a count: the multiply-adds
// the walker sums per tile call equal their closed form on every build
// — serial or fanned out, on one column panel or on panels of 4 — and
// every row update. A full Gram build delivers the upper triangle with
// its diagonal plus one cell below it per full row pair,
// (n(n+1)/2 + ⌊n/2⌋)·d, an update of c rows c·n·d; the exact kernel
// n(n−1)/2·d and c·(n−1)·d. The grid covers the exact kernel (d ≤ 16),
// odd n (a trailing row on the 1×4 tile), k-blocks with a tail
// (d = 2·gramBlock + 51, the depth seam) and n past the 64-wide panel.
// A walker that runs a tile twice, or skips one, is off by a tile's
// worth.
func TestMultiplyAddsClosedForm(t *testing.T) {
	rng := NewRNG(3)
	for _, c := range []struct{ n, d int }{
		{1, 6}, {2, 6}, {9, 6}, {40, naiveDimMax}, // exact kernel
		{4, 17}, {5, 17}, {9, 21}, {40, 100}, {41, 100}, {7, 2*gramBlock + 51}, {70, 300},
	} {
		vs := make([][]float64, c.n)
		for i := range vs {
			vs[i] = rng.NewNormal(c.d, 0, 1)
		}
		n, d := uint64(c.n), uint64(c.d)
		build, perRow := n*(n-1)/2*d, (n-1)*d
		if c.d > naiveDimMax {
			build, perRow = (n*(n+1)/2+n/2)*d, n*d
		}
		for _, shape := range []struct{ panel, workers int }{{0, 1}, {0, 3}, {4, 1}, {4, 3}} {
			m := newShell(vs)
			if shape.panel > 0 {
				m.panel = shape.panel
			}
			if got := m.buildOn(shape.workers).MultiplyAdds(); got != build {
				t.Errorf("n=%d d=%d panel=%d workers=%d: build did %d multiply-adds, want %d",
					c.n, c.d, shape.panel, shape.workers, got, build)
			}
			m.Rebuild()
			if got := m.MultiplyAdds(); got != build {
				t.Errorf("n=%d d=%d panel=%d: rebuild did %d multiply-adds, want %d", c.n, c.d, shape.panel, got, build)
			}
			for rows := range min(c.n, 3) + 1 {
				changed := make([]int, rows)
				for k := range changed {
					changed[k] = (c.n - 1) * k / max(rows-1, 1)
				}
				m.UpdateRows(changed, vs)
				if got, want := m.MultiplyAdds(), uint64(rows)*perRow; got != want {
					t.Errorf("n=%d d=%d panel=%d: update of rows %v did %d multiply-adds, want %d",
						c.n, c.d, shape.panel, changed, got, want)
				}
			}
		}
	}
}

func TestDistanceMatrixParallelSingleVector(t *testing.T) {
	m := newShell([][]float64{{1, 2}}).buildOn(4)
	if m.N() != 1 || m.At(0, 0) != 0 {
		t.Error("single-vector matrix wrong")
	}
}
