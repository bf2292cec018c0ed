package core

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"krum/internal/vec"
)

// coordMedianReference and trimmedMeanReference are the two Aggregate
// loops as they stood before the shared column helper, kept verbatim: a
// fresh column per call, sort.Float64s per coordinate.
func coordMedianReference(dst []float64, vectors [][]float64) {
	n := len(vectors)
	column := make([]float64, n)
	for j := range dst {
		for i, v := range vectors {
			column[i] = v[j]
		}
		sort.Float64s(column)
		if n%2 == 1 {
			dst[j] = column[n/2]
		} else {
			dst[j] = 0.5 * (column[n/2-1] + column[n/2])
		}
	}
}

func trimmedMeanReference(trim int, dst []float64, vectors [][]float64) {
	n := len(vectors)
	column := make([]float64, n)
	kept := float64(n - 2*trim)
	for j := range dst {
		for i, v := range vectors {
			column[i] = v[j]
		}
		sort.Float64s(column)
		var s float64
		for _, x := range column[trim : n-trim] {
			s += x
		}
		dst[j] = s / kept
	}
}

// sameValue is the equality the column order guarantees against
// sort.Float64s: == or both NaN. It deliberately does not compare bits.
// pdqsort promises no order among values that compare equal — +0 and
// -0, NaNs of different payloads — so against it the sign of a zero
// median over mixed-sign zeros is unspecified (it depends on where its
// pivots fall). sortColumn's is not, below insertionSortMax: equal
// values keep their row order, and the lane kernel picks the same
// stable one (TestCoordMedianBitsEveryTier checks bits). Either way the
// SGD step washes the sign out, because x − γ·(+0) and x − γ·(−0) are
// the same bits for every x ≠ −0, and parameters are never −0.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

// awkwardColumn draws n values from a pool rich in ties: a few distinct
// normals, both zeros, both infinities and NaN.
func awkwardColumn(rng *vec.RNG, n int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, 1, -1}
	for i := 0; i < 4; i++ {
		pool = append(pool, rng.NormFloat64())
	}
	col := make([]float64, n)
	for i := range col {
		if rng.Intn(3) == 0 {
			col[i] = rng.NormFloat64()
		} else {
			col[i] = pool[rng.Intn(len(pool))]
		}
	}
	return col
}

func checkSortColumn(t *testing.T, col []float64) {
	t.Helper()
	got, want := vec.Clone(col), vec.Clone(col)
	sortColumn(got)
	sort.Float64s(want)
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("column %v: index %d is %v, sort.Float64s puts %v there", col, i, got[i], want[i])
		}
	}
}

// TestSortColumnMatchesSortFloat64s covers both sides of the
// insertion/slices.Sort cut-over, on columns with duplicates, ±0, ±Inf
// and NaNs.
func TestSortColumnMatchesSortFloat64s(t *testing.T) {
	rng := vec.NewRNG(5)
	for _, n := range []int{0, 1, 2, 3, 7, 20, 21, insertionSortMax, insertionSortMax + 1, 300} {
		for trial := 0; trial < 200; trial++ {
			checkSortColumn(t, awkwardColumn(rng, n))
		}
	}
	// Sorted, reversed and constant columns.
	asc := make([]float64, 40)
	for i := range asc {
		asc[i] = float64(i)
	}
	desc := vec.Clone(asc)
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	checkSortColumn(t, asc)
	checkSortColumn(t, desc)
	checkSortColumn(t, make([]float64, 40))
}

// TestColumnRulesMatchReference runs CoordMedian and TrimmedMean
// against their pre-helper loops on proposals with ties and
// non-finite coordinates. TrimmedMean's sum is order-sensitive, so
// equal values here also means equal summation order.
func TestColumnRulesMatchReference(t *testing.T) {
	rng := vec.NewRNG(9)
	for _, n := range []int{1, 2, 5, 20, 21} {
		for trial := 0; trial < 20; trial++ {
			const d = 64
			vectors := make([][]float64, n)
			for i := range vectors {
				vectors[i] = make([]float64, d)
			}
			for j := 0; j < d; j++ {
				for i, x := range awkwardColumn(rng, n) {
					vectors[i][j] = x
				}
			}
			got, want := make([]float64, d), make([]float64, d)
			if err := (CoordMedian{}).Aggregate(got, vectors); err != nil {
				t.Fatal(err)
			}
			coordMedianReference(want, vectors)
			for j := range want {
				if !sameValue(got[j], want[j]) {
					t.Fatalf("n=%d coordmedian[%d] = %v, reference %v", n, j, got[j], want[j])
				}
			}
			trim := (n - 1) / 2
			if trim > 0 {
				trim = rng.Intn(trim + 1)
			}
			if err := (TrimmedMean{Trim: trim}).Aggregate(got, vectors); err != nil {
				t.Fatal(err)
			}
			trimmedMeanReference(trim, want, vectors)
			for j := range want {
				if !sameValue(got[j], want[j]) {
					t.Fatalf("n=%d trimmedmean(b=%d)[%d] = %v, reference %v", n, trim, j, got[j], want[j])
				}
			}
		}
	}
}

// TestCoordMedianBitsEveryTier compares CoordMedian, by bits, with the
// scalar path — sortedColumn then medianOfSorted, column by column —
// under every available tier, so the lanes (TierAVX2) must pick the
// very zero the stable sort puts in the middle. The columns are rich in
// ±0, ±Inf, subnormals and duplicates; about one in eight also holds
// NaNs of distinct payloads, which the lanes mark for the scalar path,
// and one case has a single NaN column inside a lane block with clean
// blocks on both sides. n crosses MedianLanesMax, d every tail residue
// and the eight-column gate.
func TestCoordMedianBitsEveryTier(t *testing.T) {
	nans := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Float64frombits(0x7ff0000000000003), math.NaN(),
	}
	pool := []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, 1, -1, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64}
	column := func(rng *vec.RNG, n int, withNaN bool) []float64 {
		col := make([]float64, n)
		for i := range col {
			switch r := rng.Intn(8); {
			case withNaN && r == 0:
				col[i] = nans[rng.Intn(len(nans))]
			case r < 3:
				col[i] = float64(rng.Intn(3)) // more ties
			default:
				col[i] = pool[rng.Intn(len(pool))]
			}
		}
		return col
	}
	check := func(t *testing.T, vectors [][]float64) []float64 {
		t.Helper()
		d := len(vectors[0])
		got, want := make([]float64, d), make([]float64, d)
		if err := (CoordMedian{}).Aggregate(got, vectors); err != nil {
			t.Fatal(err)
		}
		col := make([]float64, len(vectors))
		for j := range want {
			sortedColumn(col, vectors, j)
			want[j] = medianOfSorted(col)
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("n=%d d=%d column %d: median %#016x, scalar path %#016x",
					len(vectors), d, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
		return want
	}
	build := func(rng *vec.RNG, n, d int, nanCol func(j int) bool) [][]float64 {
		vectors := make([][]float64, n)
		for i := range vectors {
			vectors[i] = make([]float64, d)
		}
		for j := 0; j < d; j++ {
			for i, x := range column(rng, n, nanCol(j)) {
				vectors[i][j] = x
			}
		}
		return vectors
	}
	if vec.MedianLanesMax > insertionSortMax {
		t.Fatalf("MedianLanesMax %d > insertionSortMax %d: the lanes' stable order would meet pdqsort's", vec.MedianLanesMax, insertionSortMax)
	}
	for _, tier := range vec.AvailableTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			restore, err := vec.SetKernelTier(tier)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			rng := vec.NewRNG(45)
			for _, n := range []int{1, 2, 3, 4, 5, 20, 21, vec.MedianLanesMax, vec.MedianLanesMax + 1} {
				for _, d := range []int{1, 3, 4, 5, 37} {
					for trial := 0; trial < 8; trial++ {
						check(t, build(rng, n, d, func(int) bool { return rng.Intn(8) == 0 }))
					}
				}
				// NaN-free but for column 9.
				seam := build(rng, n, 37, func(j int) bool { return j == 9 })
				for _, v := range seam {
					v[9] = nans[0]
				}
				want := check(t, seam)
				if tier != vec.TierAVX2 || n > vec.MedianLanesMax {
					continue
				}
				lanes := make([]float64, 37)
				if got := vec.MedianLanes(lanes, seam); got != 36 {
					t.Fatalf("n=%d: the lanes wrote %d columns of 37, want 36", n, got)
				}
				for j, x := range lanes[:36] {
					switch {
					case j == 9 && x == x:
						t.Errorf("n=%d: the NaN column's lane reads %v, not a NaN", n, x)
					case j != 9 && x == x && math.Float64bits(x) != math.Float64bits(want[j]):
						t.Errorf("n=%d: lane %d reads %v, the median is %v", n, j, x, want[j])
					}
				}
			}
		})
	}
}

// FuzzColumnMedian reads the input as raw float64 bit patterns — so
// NaN payloads, subnormals and both zeros all occur — and checks the
// sorted column and its median against sort.Float64s.
func FuzzColumnMedian(f *testing.F) {
	seed := func(vals ...float64) {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(3, 1, 2)
	seed(0, math.Copysign(0, -1), 0, math.Copysign(0, -1))
	seed(math.NaN(), 1, math.Inf(-1), math.NaN(), -1, math.Inf(1))
	seed(5, 5, 5, 5, 4, 4, 6)
	f.Fuzz(func(t *testing.T, raw []byte) {
		col := make([]float64, len(raw)/8)
		if len(col) == 0 {
			return
		}
		for i := range col {
			col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSortColumn(t, col)
		want := vec.Clone(col)
		sort.Float64s(want)
		wantMed := want[len(want)/2]
		if len(want)%2 == 0 {
			wantMed = 0.5 * (want[len(want)/2-1] + want[len(want)/2])
		}
		if got := medianOf(col); !sameValue(got, wantMed) {
			t.Fatalf("median %v, reference %v", got, wantMed)
		}
	})
}
