package vec

import (
	"runtime"
	"sync"
)

// minParallelFlops is the minimum number of inner-product multiply-adds
// a parallel build assigns per goroutine; fan-out is capped at
// totalWork / minParallelFlops. Measured on BenchmarkDistanceMatrix /
// BenchmarkDistanceMatrixLargeN once the build had no serial prefix
// (EXPERIMENTS.md "minParallelFlops re-tried"; 2 vCPUs, six interleaved
// counts): at 2 << 20 an n = 40, d = 10⁴ build (~8 Mflop, 3 goroutines)
// takes 0.49 ms against 0.63 serial and n = 100, d = 10³ 0.27 against
// 0.33; 1 << 20 gives part of that back to goroutines the host has no
// core for (0.55, 0.30); at 8 << 20, tuned when the copy-and-norms
// prefix made parallel a wash, both shapes ran serial. Re-tried on the
// panelled walker with the same ordering (1 / 2 / 4 Mi: 0.54 / 0.51 /
// 0.68 and 0.35 / 0.32 / 0.43 ms; n = 1000 indifferent at ≈ 24 ms).
const minParallelFlops = 2 << 20

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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return newShell(vectors).build(workers)
}

// build runs the walker over "all rows, upper triangle" of zeroed
// cells on up to workers goroutines. Nothing runs ahead of the fan-out:
// each worker stages its strided row pairs, norms included, waits at
// the one barrier (assembling a cell needs the norm of a row another
// worker staged), then assembles its own rows.
func (m *DistanceMatrix) build(workers int) *DistanceMatrix {
	matrixBuilds.Add(1)
	n := m.n
	// Cap the fan-out so each goroutine gets at least minParallelFlops
	// of multiply-add work: below that, spawn/park/cache-line costs eat
	// the speedup. Worker count never affects results, only wall clock,
	// so the cap is purely a scheduling decision.
	if workers > 1 {
		flops := uint64(n) * uint64(n-1) / 2 * uint64(m.dim)
		workers = int(min(uint64(workers), uint64(n+1)/2, flops/minParallelFlops))
	}
	// Small inputs: the goroutine overhead dwarfs the work.
	if workers <= 1 || n < 4 || !m.gram {
		m.fill(stridedRows(n, 0, 1), true)
		return m
	}
	var staged, done sync.WaitGroup
	staged.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			rows := stridedRows(n, w, workers)
			m.stage(rows, true)
			staged.Done()
			staged.Wait()
			m.assemble(rows, true)
		}(w)
	}
	done.Wait()
	return m
}
