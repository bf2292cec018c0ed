package krum_test

// Benchmarks regenerating every table and figure of the reproduction
// (see EXPERIMENTS.md): one testing.B per artifact, each running the
// quick-scale experiment end to end, plus microbenchmarks of the Krum
// kernel across the Lemma 4.1 (n, d) grid. Run with
//
//	go test -bench=. -benchmem
//
// The figure benches report the headline metric of their artifact as a
// custom b.ReportMetric value so the bench log doubles as a results
// table.

import (
	"fmt"
	"io"
	"os"
	"testing"

	"krum"
	"krum/data"
	"krum/internal/harness"
	"krum/internal/vec"
	"krum/model"
	"krum/scenario"
	"krum/scenario/store"
)

// benchSeed keeps bench results stable across runs.
const benchSeed = 42

// BenchmarkLemma31 regenerates E1 (one Byzantine worker vs linear
// rules).
func BenchmarkLemma31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLemma31(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumFinalAccuracy, "krum-acc")
		b.ReportMetric(boolMetric(res.AverageDiverged || res.AverageFinalAccuracy < 0.6), "avg-destroyed")
	}
}

// BenchmarkFig2Medoid regenerates E2 (medoid collusion).
func BenchmarkFig2Medoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig2(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Row for f=2 carries the headline claim.
		b.ReportMetric(res.Rows[1].MedoidByzRate, "medoid-captured")
		b.ReportMetric(res.Rows[1].KrumByzRate, "krum-captured")
	}
}

// BenchmarkLemma41Fit regenerates E3 (cost-model fit quality).
func BenchmarkLemma41Fit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLemma41(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.R2, "n2d-fit-r2")
	}
}

// BenchmarkProp42 regenerates E4 (resilience Monte Carlo).
func BenchmarkProp42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunProp42(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		pass := 0
		for _, row := range res.Rows {
			if row.SinAlpha < 1 && row.KrumConditionI && row.KrumConditionII {
				pass++
			}
		}
		b.ReportMetric(float64(pass), "krum-resilient-rows")
	}
}

// BenchmarkProp43 regenerates E5 (convergence under attack).
func BenchmarkProp43(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunProp43(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionFactor, "gradnorm-reduction")
	}
}

// BenchmarkFig4Gaussian regenerates F4 (Gaussian attack curves).
func BenchmarkFig4Gaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig4(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumByzFinal, "krum-byz-acc")
		b.ReportMetric(res.AvgByzFinal, "avg-byz-acc")
	}
}

// BenchmarkFig5Omniscient regenerates F5 (omniscient attack curves).
func BenchmarkFig5Omniscient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumByzFinal, "krum-byz-acc")
		b.ReportMetric(boolMetric(res.AvgByzDiverged || res.AvgByzFinal < 0.3), "avg-destroyed")
	}
}

// BenchmarkFig6MultiKrum regenerates F6 (Multi-Krum trade-off).
func BenchmarkFig6MultiKrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ByzFinal, "m1-byz-acc")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ByzFinal, "mn-byz-acc")
	}
}

// BenchmarkFig7Batch regenerates F7 (cost of resilience).
func BenchmarkFig7Batch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(res.AverageCleanFinal-last.KrumByzFinal, "residual-gap")
	}
}

// BenchmarkTable1Selection regenerates T1 (selection-rate matrix).
func BenchmarkTable1Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if cell := res.Cell("gaussian(sigma=200)", "krum"); cell != nil {
			b.ReportMetric(cell.ByzSelectedRate, "krum-gauss-selrate")
		}
	}
}

// --- Kernel microbenchmarks: the Lemma 4.1 grid -----------------------

// benchVectors builds n random d-dimensional proposals.
func benchVectors(n, d int) [][]float64 {
	rng := vec.NewRNG(benchSeed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
}

// BenchmarkKrumScaling measures the Krum kernel across the (n, d) grid;
// ns/op should scale as n²·d (Lemma 4.1).
func BenchmarkKrumScaling(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40, 80} {
		for _, d := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				vs := benchVectors(n, d)
				rule := krum.NewKrum((n - 3) / 2)
				dst := make([]float64, d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rule.Aggregate(dst, vs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*n*d), "n2d")
			})
		}
	}
}

// BenchmarkRules compares every aggregation rule at one operating
// point, including the exponential minimal-diameter rule the paper
// rejects on cost grounds.
func BenchmarkRules(b *testing.B) {
	const n, d, f = 15, 1000, 4
	vs := benchVectors(n, d)
	dst := make([]float64, d)
	rules := map[string]krum.Rule{
		"krum":            krum.NewKrum(f),
		"multikrum":       krum.NewMultiKrum(f, n-f),
		"average":         krum.Average{},
		"medoid":          krum.Medoid{},
		"coordmedian":     krum.CoordMedian{},
		"trimmedmean":     krum.TrimmedMean{Trim: f},
		"geomedian":       krum.GeoMedian{},
		"minimaldiameter": krum.NewMinimalDiameter(f),
		"bulyan":          krum.NewBulyan(3), // n = 15 ≥ 4·3+3
		"clippedmean":     krum.ClippedMean{},
	}
	for _, name := range []string{"krum", "multikrum", "average", "medoid", "coordmedian", "trimmedmean", "geomedian", "minimaldiameter", "bulyan", "clippedmean"} {
		rule := rules[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := rule.Aggregate(dst, vs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulyanMemoized measures the memoized Bulyan at the
// iterated-Krum stress point (n = 40, d = 10000, θ = 31): the selection
// phase builds ONE distance matrix and masks winners out of it, so the
// cost is Θ(n²·d + θ·n²) instead of the seed's Θ(θ·n²·d). See
// BenchmarkBulyanSelectSeedReference in internal/core for the
// pool-rebuilding baseline it replaces (~10× slower at this point).
func BenchmarkBulyanMemoized(b *testing.B) {
	const n, d = 40, 10000
	f := (n - 3) / 4
	vs := benchVectors(n, d)
	dst := make([]float64, d)
	rule := krum.NewBulyan(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rule.Aggregate(dst, vs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n-2*f), "theta")
}

// BenchmarkDistanceMatrix contrasts the distance-matrix kernels at the
// Lemma 4.1 stress point (n = 40, d = 10000): the seed's per-pair
// subtract-square loop ("naive") against the blocked Gram-trick kernel
// (2×4 tiles of the active tier). The blocked/naive ratio at -cpu 1 is
// the tracked speedup (≥3× on amd64). The build picks its own goroutine
// count — min(GOMAXPROCS, 3) here, the working set (~7.8 Mflop) being
// worth three shares of the kernel's minParallelFlops — so `make bench`
// runs the rows at -cpu 1,NPROC and the -N suffix tells the serial
// constant of Lemma 4.1 from the fanned-out build; naive, on the exact
// kernel, is serial at any -cpu.
func BenchmarkDistanceMatrix(b *testing.B) {
	const n, d = 40, 10000
	vs := benchVectors(n, d)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrixNaive(vs)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrix(vs)
		}
	})
	// Per-kernel-tier variants of the blocked build (the "blocked"
	// subtest above runs whatever tier the process auto-selected; these
	// pin each tier explicitly so the trajectory records the per-ISA
	// spread — the avx2/sse2 ratio is the tentpole speedup).
	for _, kt := range vec.AvailableTiers() {
		b.Run("blocked-"+kt.String(), func(b *testing.B) {
			restore, err := vec.SetKernelTier(kt)
			if err != nil {
				b.Skip(err)
			}
			defer restore()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vec.NewDistanceMatrix(vs)
			}
		})
	}
}

// BenchmarkDistanceMatrixIncremental measures the cross-round
// incremental path at the same stress point: UpdateRows over change
// sets of c ∈ {1, 2, 4, 10} proposals (2.5%–25% of n) against the
// full blocked rebuild every round ("full-rebuild"). Steady-state cost
// is Θ(c·n·d) vs Θ(n²·d), so small change-sets win by n/(2c)-ish;
// the recorded full-rebuild/changed ratios are the tracked numbers.
func BenchmarkDistanceMatrixIncremental(b *testing.B) {
	const n, d = 40, 10000
	vs := benchVectors(n, d)
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrix(vs)
		}
	})
	for _, c := range []int{1, 2, 4, 10} {
		b.Run(fmt.Sprintf("changed=%d", c), func(b *testing.B) {
			benchUpdateRows(b, vs, c, 7)
			b.ReportMetric(float64(c)/float64(n), "changed-frac")
		})
	}
}

// benchUpdateRows times UpdateRows over c changed rows (stride apart,
// mod n) of a matrix built over vs.
func benchUpdateRows(b *testing.B, vs [][]float64, c, stride int) {
	n, d := len(vs), len(vs[0])
	m := vec.NewDistanceMatrix(vs)
	// Two alternating variants of the changed rows, so every
	// iteration installs genuinely different vectors.
	variants := [2][][]float64{benchVectors(n, d), benchVectors(n, d)}
	changed := make([]int, c)
	for k := range changed {
		changed[k] = (k * stride) % n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.UpdateRows(changed, variants[i%2])
	}
}

// BenchmarkRunIncrementalAsync measures the bounded-staleness mode's
// steady-state economics at the Lemma 4.1 stress point (n = 40,
// d = 10000): a round stream driven by a bernoulli(p=0.25,tau=8)
// arrival trace, with each round's distance work done either as a full
// blocked rebuild or through the cross-round incremental cache (one
// round-0 build, then UpdateRows over each round's arrival set). Both
// arms walk the identical proposal history, so the
// full-rebuild/incremental ns/op ratio is the tracked async cache win
// (2.7× while a rebuild copied the proposals; ≈ 2× at -cpu 1 since PR 22
// made the rebuild 2.3× cheaper and the updates 8–17 %; less on more
// cores, where the rebuild arm fans out and the row updates do not).
func BenchmarkRunIncrementalAsync(b *testing.B) {
	const n, d, rounds = 40, 10000, 32
	proc, err := krum.ParseArrival("bernoulli(p=0.25,tau=8)")
	if err != nil {
		b.Fatal(err)
	}
	trace := proc.NewTrace(benchSeed, n)
	rng := vec.NewRNG(benchSeed)

	// Proposal history: states[r] holds the full n-vector state after
	// round r's arrivals installed fresh proposals; unchanged rows share
	// their backing arrays with the previous round.
	states := make([][][]float64, rounds)
	changed := make([][]int, rounds)
	states[0] = benchVectors(n, d)
	changed[0] = trace.Next()
	totalChanged := 0
	for r := 1; r < rounds; r++ {
		arrivals := trace.Next()
		states[r] = make([][]float64, n)
		copy(states[r], states[r-1])
		for _, i := range arrivals {
			states[r][i] = rng.NewNormal(d, 0, 1)
		}
		changed[r] = arrivals
		totalChanged += len(arrivals)
	}
	frac := float64(totalChanged) / float64((rounds-1)*n)

	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				vec.NewDistanceMatrix(states[r])
			}
		}
		b.ReportMetric(frac, "changed-frac")
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := vec.NewDistanceMatrix(states[0])
			for r := 1; r < rounds; r++ {
				m.UpdateRows(changed[r], states[r])
			}
		}
		b.ReportMetric(frac, "changed-frac")
	})
}

// BenchmarkScenarioMatrixRunner measures scenario-matrix throughput on
// the concurrent runner — cells/sec over a 12-cell (rules × attacks ×
// seeds) grid of short training runs. This is the tracked metric for
// the many-concurrent-experiments serving path (`make bench`).
func BenchmarkScenarioMatrixRunner(b *testing.B) {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    20,
			BatchSize: 8,
			Seed:      benchSeed,
		},
		Rules:   []string{"krum", "average", "multikrum(m=5)"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
		Seeds:   []uint64{1, 2},
	}
	cells := m.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&scenario.Runner{}).Run(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkGradientPath tracks the four loops a training cell spends
// its time in, each at the shape that is hot: rendering one 16×16
// digit, one MLP mini-batch gradient at the paper's experiment shape
// (d = 12 826), the coordinate-wise median at n = 20 over that d — and
// the grid_small softmax gradient, whose matrices are so small that a
// per-call fixed cost in the matmuls (a zeroed stack scratch array once
// cost it 25 %) shows here and nowhere else. The last three rows are
// the row kernels under that MLP gradient on their own — its two large
// products (forward x·W₁ and the strided backward xᵀ·dh, x at 45 %
// zeros like a rendered batch) and the d-long axpy of the SGD step and
// of every averaging rule — each reporting ns per multiply-add
// performed (zero coefficients, which are skipped, not counted).
func BenchmarkGradientPath(b *testing.B) {
	ds, err := data.NewSyntheticMNIST(16, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("render16", func(b *testing.B) {
		rng := vec.NewRNG(benchSeed)
		img := make([]float64, ds.Dim())
		for i := 0; i < b.N; i++ {
			ds.Render(rng, i%10, img)
		}
	})
	gradient := func(m model.Model, ds data.Dataset, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			x, y, err := data.NewBatch(ds, vec.NewRNG(benchSeed), batch)
			if err != nil {
				b.Fatal(err)
			}
			grad := make([]float64, m.Dim())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Gradient(grad, x, y); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	mlp, err := model.NewMLP(ds.Dim(), []int{48}, 10, model.ActReLU, model.SoftmaxCrossEntropy{}, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mlp-gradient-16x256x48", gradient(mlp, ds, 16))
	gmm, err := data.NewGaussianMixture(3, 6, 4, 0.5, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	softmax, err := model.NewSoftmaxClassifier(6, 3, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("softmax-gradient-8x6x3", gradient(softmax, gmm, 8))
	b.Run("coordmedian-n20-d12826", func(b *testing.B) {
		// 14 honest proposals and 6 Gaussian-attack ones, as in the
		// train_mnist_attack cells.
		const n, f, d = 20, 6, 12826
		rng := vec.NewRNG(benchSeed)
		vs := make([][]float64, n)
		for i := range vs {
			sigma := 1.0
			if i >= n-f {
				sigma = 200
			}
			vs[i] = rng.NewNormal(d, 0, sigma)
		}
		dst := make([]float64, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := (krum.CoordMedian{}).Aggregate(dst, vs); err != nil {
				b.Fatal(err)
			}
		}
	})
	perMadd := func(b *testing.B, madds int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(madds), "ns/madd")
	}
	rng := vec.NewRNG(benchSeed)
	x := vec.NewDenseFrom(16, 256, rng.NewNormal(16*256, 0, 1))
	nonzero := 0
	for i := range x.Data {
		if rng.Float64() < 0.45 {
			x.Data[i] = 0
		} else {
			nonzero++
		}
	}
	w := vec.NewDenseFrom(256, 48, rng.NewNormal(256*48, 0, 1))
	dh := vec.NewDenseFrom(16, 48, rng.NewNormal(16*48, 0, 1))
	b.Run("matmul-16x256x48", func(b *testing.B) {
		dst := vec.NewDense(16, 48)
		for i := 0; i < b.N; i++ {
			vec.MatMul(dst, x, w)
		}
		perMadd(b, nonzero*48)
	})
	b.Run("matmulATB-256x16x48", func(b *testing.B) {
		dst := vec.NewDense(256, 48)
		for i := 0; i < b.N; i++ {
			vec.MatMulATB(dst, x, dh)
		}
		perMadd(b, nonzero*48)
	})
	b.Run("axpy-d12826", func(b *testing.B) {
		const d = 12826
		g, params := rng.NewNormal(d, 0, 1), rng.NewNormal(d, 0, 1)
		for i := 0; i < b.N; i++ {
			vec.Axpy(-1e-3, g, params)
		}
		perMadd(b, d)
	})
}

// BenchmarkRunnerWithStore measures the content-addressed result
// store's warm-vs-cold economics on the BenchmarkScenarioMatrixRunner
// grid (tracked by `make bench`): "cold" runs the matrix into a fresh
// in-memory store every iteration (training + write-through), "warm"
// re-runs it against a pre-populated store, where every cell is a hit
// and no training or distance-matrix work happens. The cold/warm ratio
// is the speedup a repeated grid enjoys; warm ns/op is the pure
// store-serving overhead (hashing + decode).
func BenchmarkRunnerWithStore(b *testing.B) {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    20,
			BatchSize: 8,
			Seed:      benchSeed,
		},
		Rules:   []string{"krum", "average", "multikrum(m=5)"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
		Seeds:   []uint64{1, 2},
	}
	cells := m.Size()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := store.NewMemory()
			if _, err := (&scenario.Runner{Store: st}).Run(m); err != nil {
				b.Fatal(err)
			}
			if got := st.Stats().Saves; got != cells {
				b.Fatalf("cold run saved %d cells, want %d", got, cells)
			}
		}
		b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
	})

	b.Run("warm", func(b *testing.B) {
		st := store.NewMemory()
		if _, err := (&scenario.Runner{Store: st}).Run(m); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := (&scenario.Runner{Store: st}).Run(m)
			if err != nil {
				b.Fatal(err)
			}
			for j := range results {
				if !results[j].Cached {
					b.Fatalf("cell %d missed the warm store", j)
				}
			}
		}
		b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
	})
}

// BenchmarkResilienceVerifier measures the Definition 3.2 Monte-Carlo
// verifier throughput.
func BenchmarkResilienceVerifier(b *testing.B) {
	g := make([]float64, 10)
	vec.Fill(g, 1)
	for i := 0; i < b.N; i++ {
		if _, err := krum.VerifyResilience(krum.ResilienceConfig{
			Rule: krum.NewKrum(3), N: 15, F: 3, Gradient: g, Sigma: 0.05,
			Trials: 200, Seed: benchSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationHiddenCoordinate regenerates the E6 extension table.
func BenchmarkAblationHiddenCoordinate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAblation(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if r := res.Row("bulyan"); r != nil {
			b.ReportMetric(r.CoordError, "bulyan-coord-err")
		}
		if r := res.Row("average"); r != nil {
			b.ReportMetric(r.CoordError, "avg-coord-err")
		}
	}
}

// BenchmarkNonIID regenerates the E7 extension table (the i.i.d.
// assumption stress test).
func BenchmarkNonIID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunNonIID(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if r := res.Row("krum"); r != nil {
			b.ReportMetric(r.Gap, "krum-skew-gap")
		}
		if r := res.Row("average"); r != nil {
			b.ReportMetric(r.Gap, "avg-skew-gap")
		}
	}
}

// --- Large-n tier -----------------------------------------------------

// largeNTiers is the large-n benchmark tier of
// BenchmarkDistanceMatrixLargeN. d shrinks as n grows to keep wall
// clock and the Θ(n²) matrix footprint sane (n = 10000 already needs
// ~800 MB for the distance matrix alone); the 10k point only runs when
// KRUM_LARGE_BENCH is set — use `make bench-large`.
var largeNTiers = []struct {
	n, d  int
	large bool
}{
	{n: 100, d: 1000},
	{n: 1000, d: 1000},
	{n: 10000, d: 128, large: true},
}

// BenchmarkDistanceMatrixLargeN measures the full-matrix kernels at
// the large-n tier, where — unlike the n = 40 stress point of
// BenchmarkDistanceMatrix — the total work is worth a share per core
// on any host (n = 1000: 238 shares of minParallelFlops), and
// (n ≥ 1000) the k-block slices no longer fit L2 together, so the
// walker's column panels engage too. Every row reports ns/(n²·d), the
// constant of Lemma 4.1 as the paper counts it (a full build does
// n²/2 products, changed=c does c·n): the blocked rows at n = 100 and
// n = 1000 within 25 % of each other at -cpu 1 is the tracked claim,
// with the -cpu 1 / -cpu NPROC ratio at n ≥ 1000 the fan-out's.
// changed=50 is the update path (UpdateRows over 5 % of the rows, which
// never fans out) at n ≫ 40, measured nowhere else.
func BenchmarkDistanceMatrixLargeN(b *testing.B) {
	for _, tier := range largeNTiers {
		if tier.large && os.Getenv("KRUM_LARGE_BENCH") == "" {
			continue
		}
		n, d := tier.n, tier.d
		vs := benchVectors(n, d)
		perN2D := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(n)*float64(n)*float64(d)), "ns/(n²·d)")
		}
		b.Run(fmt.Sprintf("n=%d/d=%d/blocked", n, d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vec.NewDistanceMatrix(vs)
			}
			perN2D(b)
		})
		if n != 1000 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d/d=%d/changed=50", n, d), func(b *testing.B) {
			benchUpdateRows(b, vs, 50, 37)
			perN2D(b)
		})
	}
}
