package vec

import (
	"math"
	"runtime"
	"sync"
)

// minParallelFlops is the minimum number of multiply-adds a fan-out
// assigns per goroutine; Width caps it at totalWork / minParallelFlops:
// below that, spawn/park/cache-line costs eat the speedup. Measured on
// BenchmarkDistanceMatrix / BenchmarkDistanceMatrixLargeN once the
// build had no serial prefix (EXPERIMENTS.md "minParallelFlops
// re-tried"; 2 vCPUs, six interleaved counts): at 2 << 20 an n = 40,
// d = 10⁴ build (~8 Mflop, 3 goroutines) takes 0.49 ms against 0.63
// serial and n = 100, d = 10³ 0.27 against 0.33; 1 << 20 gives part of
// that back to goroutines the host has no core for (0.55, 0.30); at
// 8 << 20, tuned when the copy-and-norms prefix made parallel a wash,
// both shapes ran serial. Re-tried on the
// panelled walker with the same ordering (1 / 2 / 4 Mi: 0.54 / 0.51 /
// 0.68 and 0.35 / 0.32 / 0.43 ms; n = 1000 indifferent at ≈ 24 ms).
const minParallelFlops = 2 << 20

// Width returns the number of goroutines a fan-out of items independent
// pieces, madds multiply-adds in all, runs on when the host runs procs
// goroutines at once: min(procs, items, madds / minParallelFlops), and
// at least 1. It is the one width rule of the repo's two fan-outs, a
// distance build's row pairs (shares) and a training round's correct
// workers (distsgd's lanes). The count is a scheduling decision only:
// neither fan-out lets it change a bit of its result.
func Width(procs, items int, madds uint64) int {
	return int(max(1, min(uint64(procs), uint64(items), madds/minParallelFlops)))
}

// shares returns the number of goroutines a full build fans out on when
// the host runs procs of them at once: Width over (n+1)/2 row pairs of
// n(n−1)/2·d multiply-adds, and 1 on the exact kernel or below four
// rows, where the goroutine overhead dwarfs the work. It is a function
// of the shape and procs alone, and every cell goes through the same
// loop nest on any share count, so the count never changes a bit of the
// result (the concurrency contract the scenario runner's determinism
// test pins down).
func (m *DistanceMatrix) shares(procs int) int {
	if m.n < 4 || !m.gram {
		return 1
	}
	n := uint64(m.n)
	return Width(procs, (m.n+1)/2, n*(n-1)/2*uint64(m.dim))
}

// build runs the walker over "all rows, upper triangle" of zeroed cells
// on as many goroutines as the shape and the host are worth. The
// shape's own cap is taken first: a build it holds to one share (every
// small scenario cell) never takes the scheduler lock GOMAXPROCS reads
// under.
func (m *DistanceMatrix) build() *DistanceMatrix {
	w := m.shares(math.MaxInt)
	if w > 1 {
		w = m.shares(runtime.GOMAXPROCS(0))
	}
	return m.buildOn(w)
}

// buildOn is build on exactly workers strided shares of the row pairs
// (stridedRows; ≤ 1, or the exact kernel, is the one serial walk).
// Nothing runs ahead of the fan-out: each worker stages its row pairs,
// norms included, waits at the one barrier (assembling a cell needs the
// norm of a row another worker staged), then assembles its own rows.
// Each dot's O(d) inner product dominates, so speedup is close to
// linear in the deep-learning regime (d ≫ n) the paper targets —
// Lemma 4.1's cost lives almost entirely here.
func (m *DistanceMatrix) buildOn(workers int) *DistanceMatrix {
	n := m.n
	if workers <= 1 || !m.gram {
		m.madds.Store(m.fill(stridedRows(n, 0, 1), true))
		return m
	}
	m.madds.Store(0)
	var staged, done sync.WaitGroup
	staged.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			rows := stridedRows(n, w, workers)
			madds := m.stage(rows, true)
			staged.Done()
			staged.Wait()
			m.assemble(rows, true)
			m.madds.Add(madds)
		}(w)
	}
	done.Wait()
	return m
}
