package vec

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveDist2 is the test-local oracle: the textbook subtract-square
// loop, written independently of both production kernels.
func naiveDist2(a, b []float64) float64 {
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// gramTol returns the acceptance band for comparing a Gram-trick
// distance against the subtract-square oracle for vectors i and j. The
// two formulas accumulate O(d) rounding steps over terms bounded by
// the squared norms, so the principled bound is relative to the input
// MAGNITUDES, not the result: cancellation can make the true distance
// arbitrarily small while both computed values still carry
// O(d·ε·(‖a‖²+‖b‖²)) noise.
func gramTol(m *DistanceMatrix, i, j int) float64 {
	const eps = 2.22e-16                         // 2^-52
	scale := Norm2(m.rows[i]) + Norm2(m.rows[j]) // nrm is the Gram kernel's only
	return 8 * float64(m.dim+1) * eps * (scale + 1)
}

// adversarialVectors builds n d-dimensional vectors whose entries mix
// the magnitude extremes ±1e8 and ±1e-8 with unit-scale noise — the
// regime where the Gram trick's cancellation error is worst.
func adversarialVectors(rng *RNG, n, d int) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		v := rng.NewNormal(d, 0, 1)
		for k := range v {
			switch rng.Intn(4) {
			case 0:
				v[k] *= 1e8
			case 1:
				v[k] *= 1e-8
			}
			if rng.Intn(2) == 0 {
				v[k] = -v[k]
			}
		}
		vs[i] = v
	}
	return vs
}

// checkMatrixInvariants asserts the structural properties every
// distance matrix must satisfy regardless of kernel: zero diagonal,
// exact symmetry, and non-negativity (the clamp's contract).
func checkMatrixInvariants(t *testing.T, m *DistanceMatrix) {
	t.Helper()
	n := m.N()
	for i := 0; i < n; i++ {
		if got := m.At(i, i); got != 0 {
			t.Fatalf("At(%d,%d) = %v, want exact 0", i, i, got)
		}
		for j := 0; j < n; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", i, j, m.At(i, j), m.At(j, i))
			}
			if m.At(i, j) < 0 {
				t.Fatalf("negative distance at (%d,%d): %v", i, j, m.At(i, j))
			}
			if math.IsNaN(m.At(i, j)) {
				t.Fatalf("NaN distance at (%d,%d)", i, j)
			}
		}
	}
}

// checkAgainstOracle cross-checks every cell of m against the
// independent subtract-square oracle within the principled tolerance.
func checkAgainstOracle(t *testing.T, m *DistanceMatrix, vectors [][]float64) {
	t.Helper()
	for i := range vectors {
		for j := range vectors {
			want := naiveDist2(vectors[i], vectors[j])
			got := m.At(i, j)
			if tol := gramTol(m, i, j); math.Abs(got-want) > tol {
				t.Fatalf("At(%d,%d) = %v, oracle %v (|Δ| = %g > tol %g, d = %d)",
					i, j, got, want, math.Abs(got-want), tol, m.Dim())
			}
		}
	}
}

// TestBlockedKernelMatchesNaiveAcrossShapes pins the blocked Gram
// kernel to the oracle over every n in 1..64 (small d) and over the
// dimension extremes of the issue grid — d = 1 and 3 exercise the tile
// tails, 1000 and 10007 the steady-state loop (10007 is odd AND ≡ 3
// mod 4, hitting both remainder paths at once).
func TestBlockedKernelMatchesNaiveAcrossShapes(t *testing.T) {
	rng := NewRNG(1234)
	for n := 1; n <= 64; n++ {
		d := 1 + rng.Intn(40) // straddles naiveDimMax: both kernels run
		vs := adversarialVectors(rng, n, d)
		m := NewDistanceMatrix(vs)
		checkMatrixInvariants(t, m)
		checkAgainstOracle(t, m, vs)
	}
	for _, d := range []int{1, 3, 17, 33, 1000, 10007} {
		for _, n := range []int{1, 2, 5, 9, 40} {
			vs := adversarialVectors(rng, n, d)
			m := NewDistanceMatrix(vs)
			checkMatrixInvariants(t, m)
			checkAgainstOracle(t, m, vs)
			// The naive constructor must satisfy the same invariants
			// (it shares the struct but not the kernel).
			checkMatrixInvariants(t, NewDistanceMatrixNaive(vs))
		}
	}
}

// TestBlockedKernelQuick is the randomized property: arbitrary shapes
// and magnitudes, blocked == oracle within tolerance, plus invariants.
func TestBlockedKernelQuick(t *testing.T) {
	f := func(seed uint64, n8, d8 uint8) bool {
		n := int(n8%24) + 1
		d := int(d8%40) + 1
		rng := NewRNG(seed)
		vs := adversarialVectors(rng, n, d)
		m := NewDistanceMatrix(vs)
		for i := 0; i < n; i++ {
			if m.At(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if m.At(i, j) != m.At(j, i) || m.At(i, j) < 0 {
					return false
				}
				if math.Abs(m.At(i, j)-naiveDist2(vs[i], vs[j])) > gramTol(m, i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParallelBitIdenticalToSerial: the worker count must never change
// a single bit of the matrix — the determinism contract the scenario
// runner builds on. Exact comparison, no tolerance.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	rng := NewRNG(99)
	for _, n := range []int{2, 3, 4, 5, 7, 8, 16, 31, 40} {
		for _, workers := range []int{0, 1, 2, 3, 8, 100} {
			vs := adversarialVectors(rng, n, 129)
			serial := NewDistanceMatrix(vs)
			par := newShell(vs).buildOn(workers)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if serial.At(i, j) != par.At(i, j) {
						t.Fatalf("n=%d workers=%d: cell (%d,%d) differs: %v vs %v",
							n, workers, i, j, serial.At(i, j), par.At(i, j))
					}
				}
			}
		}
	}
}

// TestParallelFanOutBitIdenticalToSerial is the same contract at a
// shape that clears minParallelFlops, so NewDistanceMatrix itself fans
// out wherever GOMAXPROCS allows (every shape above it builds on one
// share): an odd n for the trailing single row, three k-blocks deep.
// Under -race this is the data-race check of the workers'
// disjoint-cell claim.
func TestParallelFanOutBitIdenticalToSerial(t *testing.T) {
	const n, d, workers = 97, 2*gramBlock + 2053, 3
	if fanOut := n * (n - 1) / 2 * d / minParallelFlops; fanOut < workers {
		t.Fatalf("shape allows only %d goroutines, want %d: the test would be vacuous", fanOut, workers)
	}
	vs := adversarialVectors(NewRNG(7), n, d)
	serial := newShell(vs).buildOn(1)
	for _, par := range []*DistanceMatrix{newShell(vs).buildOn(workers), NewDistanceMatrix(vs)} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if serial.At(i, j) != par.At(i, j) {
					t.Fatalf("cell (%d,%d) differs: serial %v, fanned out %v", i, j, serial.At(i, j), par.At(i, j))
				}
			}
		}
	}
}

// TestUpdateRowEquivalence is the incremental-path contract: after any
// sequence of single-row mutations, the matrix is BIT-IDENTICAL to a
// full rebuild over the final vector set. The guarantee is exact — not
// within tolerance — because update and build share the canonical
// per-pair accumulation order (see gram.go).
func TestUpdateRowEquivalence(t *testing.T) {
	rng := NewRNG(4242)
	for _, shape := range []struct{ n, d int }{{1, 7}, {2, 3}, {5, 1}, {9, 64}, {17, 129}, {40, 257}} {
		vs := adversarialVectors(rng, shape.n, shape.d)
		m := NewDistanceMatrix(vs)
		shadow := CloneAll(vs)
		for step := 0; step < 30; step++ {
			i := rng.Intn(shape.n)
			nv := adversarialVectors(rng, 1, shape.d)[0]
			m.UpdateRow(i, nv)
			shadow[i] = nv
			if step%10 != 9 {
				continue
			}
			fresh := NewDistanceMatrix(shadow)
			for a := 0; a < shape.n; a++ {
				for b := 0; b < shape.n; b++ {
					if m.At(a, b) != fresh.At(a, b) {
						t.Fatalf("n=%d d=%d step %d: cell (%d,%d) diverged from rebuild: %v vs %v",
							shape.n, shape.d, step, a, b, m.At(a, b), fresh.At(a, b))
					}
				}
			}
			checkMatrixInvariants(t, m)
		}
	}
}

// TestUpdateRowsEquivalence covers the batch path: random change-sets
// (including overlapping/duplicate indices and odd sizes that exercise
// the dual-row tile's trailing single row) must land bit-identically
// on the full rebuild, and the update must leave the stored copies in
// sync (VectorEqual sees the new content). The second shape's
// dimension exceeds gramBlock, driving the same change-sets through a
// multi-block walk.
func TestUpdateRowsEquivalence(t *testing.T) {
	rng := NewRNG(777)
	for _, shape := range []struct{ n, d int }{{13, 37}, {11, gramBlock + 453}} {
		n, d := shape.n, shape.d
		vs := adversarialVectors(rng, n, d)
		m := NewDistanceMatrix(vs)
		shadow := CloneAll(vs)
		for step := 0; step < 40; step++ {
			c := rng.Intn(n) + 1
			changed := make([]int, c)
			for k := range changed {
				changed[k] = rng.Intn(n) // duplicates allowed on purpose
			}
			for _, i := range changed {
				shadow[i] = adversarialVectors(rng, 1, d)[0]
			}
			m.UpdateRows(changed, shadow)
			fresh := NewDistanceMatrix(shadow)
			for a := 0; a < n; a++ {
				if !m.VectorEqual(a, shadow[a]) {
					t.Fatalf("n=%d d=%d step %d: stored vector %d out of sync after UpdateRows", n, d, step, a)
				}
				for b := 0; b < n; b++ {
					if m.At(a, b) != fresh.At(a, b) {
						t.Fatalf("n=%d d=%d step %d (changed %v): cell (%d,%d) diverged: %v vs %v",
							n, d, step, changed, a, b, m.At(a, b), fresh.At(a, b))
					}
				}
			}
		}
	}
}

// TestUpdateRowsCountsDistinctRows pins the row-update accounting at
// both depths (one k-block and several): a change-set with repeated
// indices recomputes each distinct row once, UpdateRows returns that
// distinct count, and the matrix lands bit-identically on a rebuild.
func TestUpdateRowsCountsDistinctRows(t *testing.T) {
	t.Parallel()
	rng := NewRNG(35)
	for _, d := range []int{100, gramBlock + 51} {
		const n = 7
		vs := adversarialVectors(rng, n, d)
		m := NewDistanceMatrix(vs)
		for _, tc := range []struct {
			changed  []int
			distinct int
		}{{[]int{3, 5, 3}, 2}, {[]int{2, 2}, 1}, {[]int{6, 0, 6, 0, 4}, 3}} {
			for _, i := range tc.changed {
				vs[i] = adversarialVectors(rng, 1, d)[0]
			}
			if got := m.UpdateRows(tc.changed, vs); got != tc.distinct {
				t.Errorf("d=%d UpdateRows(%v): returned %d, want %d distinct rows", d, tc.changed, got, tc.distinct)
			}
			fresh := NewDistanceMatrix(vs)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if m.At(i, j) != fresh.At(i, j) {
						t.Fatalf("d=%d UpdateRows(%v): cell (%d,%d) = %v, rebuild %v", d, tc.changed, i, j, m.At(i, j), fresh.At(i, j))
					}
				}
			}
		}
	}
}

// TestVectorEqual pins the exact-comparison semantics the cross-round
// cache depends on: bitwise equality, length mismatch is "not equal",
// and NaN ≠ NaN (a NaN-carrying proposal is always "changed", so a
// poisoned round can never be served from the cache).
func TestVectorEqual(t *testing.T) {
	m := NewDistanceMatrix([][]float64{{1, 2, 3}, {4, 5, math.NaN()}})
	if !m.VectorEqual(0, []float64{1, 2, 3}) {
		t.Error("identical vector reported unequal")
	}
	if m.VectorEqual(0, []float64{1, 2}) {
		t.Error("shorter vector reported equal")
	}
	if m.VectorEqual(0, []float64{1, 2, 3.0000001}) {
		t.Error("perturbed vector reported equal")
	}
	if m.VectorEqual(1, []float64{4, 5, math.NaN()}) {
		t.Error("NaN-carrying vector compared equal; cache would serve a poisoned round")
	}
	if m.VectorEqual(0, []float64{1, 2, -3}) {
		t.Error("sign flip reported equal")
	}
}

// TestUpdateRowDimensionPanic: feeding a wrong-dimension vector to the
// incremental path must panic like every other vec kernel, not corrupt
// the matrix.
func TestUpdateRowDimensionPanic(t *testing.T) {
	m := NewDistanceMatrix([][]float64{{1, 2}, {3, 4}})
	defer func() {
		if recover() == nil {
			t.Error("UpdateRow with wrong dimension did not panic")
		}
	}()
	m.UpdateRow(0, []float64{1, 2, 3})
}

// TestBorrowedBuildMatchesDeepCopy is the borrowing half of the
// ownership rule (core's TestRoundCacheOwnsItsCopies is the owning
// half): a build reads the caller's vectors where they lie — separately
// allocated, at odd offsets inside larger buffers — without copying or
// modifying them, and its cells and norms equal, bit for bit, those of
// a build over contiguous deep copies, serial and on 2, 3 and 8
// goroutines. n covers no tile, one tile, every clamped last-tile width
// and the odd trailing row; d covers one block, both sides of the block
// seam, two full blocks and the n = 40, d = 10⁴ stress shape (the one
// that clears minParallelFlops here, so the build over the copies picks
// more than one share itself wherever GOMAXPROCS allows).
func TestBorrowedBuildMatchesDeepCopy(t *testing.T) {
	rng := NewRNG(611)
	for _, d := range []int{17, 2047, 2048, 2049, 4100, 10_000} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 40, 41} {
			vs := make([][]float64, n)
			for i := range vs {
				off := 1 + rng.Intn(7)
				buf := rng.NewNormal(off+d+3, 0, 2)
				vs[i] = buf[off : off+d]
			}
			copies := CloneAll(vs)
			want := NewDistanceMatrix(copies)
			for _, workers := range []int{1, 2, 3, 8} {
				got := newShell(vs).buildOn(workers)
				for i := range vs {
					if &got.rows[i][0] != &vs[i][0] {
						t.Fatalf("n=%d d=%d workers=%d: row %d was copied, not borrowed", n, d, workers, i)
					}
					if math.Float64bits(got.nrm[i]) != math.Float64bits(want.nrm[i]) {
						t.Fatalf("n=%d d=%d workers=%d: norm %d = %v, over copies %v", n, d, workers, i, got.nrm[i], want.nrm[i])
					}
				}
				for c := range want.d {
					if math.Float64bits(got.d[c]) != math.Float64bits(want.d[c]) {
						t.Fatalf("n=%d d=%d workers=%d: cell (%d,%d) = %v, over copies %v", n, d, workers, c/n, c%n, got.d[c], want.d[c])
					}
				}
			}
			for i := range vs {
				if !want.VectorEqual(i, vs[i]) {
					t.Fatalf("n=%d d=%d: the build modified borrowed row %d", n, d, i)
				}
			}
		}
	}
	// The header list is the matrix's own: re-pointing a row of a built
	// matrix must not write through to the caller's slice of vectors.
	vs := [][]float64{rng.NewNormal(20, 0, 1), rng.NewNormal(20, 0, 1)}
	first := vs[0]
	NewDistanceMatrix(vs).UpdateRow(0, rng.NewNormal(20, 0, 1))
	if &vs[0][0] != &first[0] {
		t.Error("UpdateRow re-pointed the caller's vector list")
	}
}
