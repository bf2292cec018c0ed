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

// sameValue is the equality the column order guarantees: == or both
// NaN. It deliberately does not compare bits. Among values that compare
// equal — +0 and -0, NaNs of different payloads — neither pdqsort nor
// insertion promises an order, so the sign of a zero median over a
// column of mixed-sign zeros was already unspecified before the helper
// (it depends on where pdqsort's pivots fall); the SGD step washes it
// out, because x − γ·(+0) and x − γ·(−0) are the same bits for every
// x ≠ −0, and parameters are never −0.
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
