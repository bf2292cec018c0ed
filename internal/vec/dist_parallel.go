package vec

import (
	"runtime"
	"sync"
)

// minParallelFlops is the minimum number of inner-product multiply-adds
// a parallel build assigns per goroutine; fan-out is capped at
// totalWork / minParallelFlops. Tuned on BenchmarkDistanceMatrix /
// BenchmarkDistanceMatrixLargeN: an n = 40, d = 10⁴ build (~8 Mflop)
// runs serial — where parallel was a wash — while n ≥ 10³ builds fan
// out fully.
const minParallelFlops = 8 << 20

// NewDistanceMatrixParallel computes the same matrix as
// NewDistanceMatrix using up to workers goroutines (0 means
// GOMAXPROCS). Each worker runs the tile walker (fill) over its strided
// share of the row pairs (stridedRows), so every cell goes through the
// same loop nest as the serial build and the result is bit-identical
// whatever the worker count (the concurrency contract the scenario
// runner's determinism test pins down). Each dot's O(d) inner product
// dominates, so speedup is close to linear in the deep-learning regime
// (d ≫ n) the paper targets — Lemma 4.1's cost lives almost entirely
// here.
func NewDistanceMatrixParallel(vectors [][]float64, workers int) *DistanceMatrix {
	n := len(vectors)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if pairs := (n + 1) / 2; workers > pairs {
		workers = pairs
	}
	// Cap the fan-out so each goroutine gets at least minParallelFlops
	// of multiply-add work: below that, spawn/park/cache-line costs eat
	// the speedup (at n = 40, d = 10⁴ the whole build is ~8 Mflop —
	// barely one goroutine's worth). Worker count never affects results,
	// only wall clock, so the cap is purely a scheduling decision.
	dim := 0
	if n > 0 {
		dim = len(vectors[0])
	}
	totalFlops := uint64(n) * uint64(n-1) / 2 * uint64(dim)
	if maxW := totalFlops / minParallelFlops; uint64(workers) > maxW {
		workers = int(maxW)
	}
	// Small inputs: the goroutine overhead dwarfs the work.
	if workers <= 1 || n < 4 {
		return NewDistanceMatrix(vectors)
	}
	m := newShell(vectors)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.fill(stridedRows(n, w, workers), true)
		}(w)
	}
	wg.Wait()
	return m
}
