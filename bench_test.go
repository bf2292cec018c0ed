package krum_test

// Benchmarks of the kernels, the rules, the gradient path and the
// resilience verifier. Run with
//
//	go test -bench=. -benchmem
//
// End-to-end numbers — the scenario runner, the result store, the async
// incremental cache — are measured by the repo benchmark module
// (benchmark/, workloads grid_small and aggregate_replay, store hits as
// store.lookup_hit_us), not here. The experiments themselves are not
// benchmarked either: their shape tests (internal/harness) run them and
// pin what they render, and the Lemma 4.1 cost sweep is
// `krum-experiments -exp lemma41`.

import (
	"fmt"
	"os"
	"testing"

	"krum"
	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// benchSeed keeps bench results stable across runs.
const benchSeed = 42

// benchVectors builds n random d-dimensional proposals.
func benchVectors(n, d int) [][]float64 {
	rng := vec.NewRNG(benchSeed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
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
		"krumk":           &krum.KrumK{K: n - f - 2},
		"average":         krum.Average{},
		"medoid":          krum.Medoid{},
		"coordmedian":     krum.CoordMedian{},
		"trimmedmean":     krum.TrimmedMean{Trim: f},
		"geomedian":       krum.GeoMedian{},
		"minimaldiameter": krum.NewMinimalDiameter(f),
		"bulyan":          krum.NewBulyan(3), // n = 15 ≥ 4·3+3
		"clippedmean":     krum.ClippedMean{},
	}
	for _, name := range []string{"krum", "multikrum", "krumk", "average", "medoid", "coordmedian", "trimmedmean", "geomedian", "minimaldiameter", "bulyan", "clippedmean"} {
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
	// grid_small's shape: the softmax's d = 21 leaves a one-element
	// tail in every inner product, so the cost of a kernel's tail path
	// shows here and not at d = 10000.
	small := benchVectors(9, 21)
	b.Run("blocked-n9-d21", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrix(small)
		}
	})
	// Per-kernel-tier variants of the blocked build (the "blocked"
	// subtest above runs whatever tier the process auto-selected; these
	// pin each tier explicitly so the trajectory records the per-ISA
	// spread — the avx2/go ratio is the tentpole speedup).
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

// BenchmarkGradientPath tracks the four loops a training cell spends
// its time in, each at the shape that is hot: rendering one 16×16
// digit, one MLP mini-batch gradient at the paper's experiment shape
// (d = 12 826) and one evaluation of that MLP on a 300-row batch
// (accuracy and loss), the coordinate-wise median at n = 20 over that d — and
// the grid_small softmax gradient, whose matrices are so small that a
// per-call fixed cost in the matmuls (a zeroed stack scratch array once
// cost it 25 %) shows here and nowhere else. The next three rows are
// the row kernels under that MLP gradient on their own — its two large
// products (forward x·W₁ and the strided backward xᵀ·dh, x at 45 %
// zeros like a rendered batch) and the d-long axpy of the SGD step and
// of every averaging rule — each reporting ns per multiply-add
// performed (zero coefficients, which are skipped, not counted). The
// sampler follows: one Gaussian-attack proposal's FillNormal at that
// d, in ns per normal, then two mini-batch draws — grid_small's
// per-worker 8×6 mixture batch and a 16-row spambase batch (57 normals
// a row, odd, so a cached variate crosses rows) — and one Sample of
// each, a batch of one row, as ClassFilter's rejection loop and a
// traced dataset draw them.
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
	b.Run("mlp-evaluate-300x256x48", func(b *testing.B) {
		x, y, err := data.NewBatch(ds, vec.NewRNG(benchSeed), 300)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := model.Evaluate(mlp, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	gmm, err := data.NewGaussianMixture(3, 6, 4, 0.5, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	softmax, err := model.NewSoftmaxClassifier(6, 3, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("softmax-gradient-8x6x3", gradient(softmax, gmm, 8))
	coordMedian := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			// n-6 honest proposals and 6 Gaussian-attack ones, as in
			// the train_mnist_attack cells.
			const f, d = 6, 12826
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
		}
	}
	b.Run("coordmedian-n20-d12826", coordMedian(20))
	b.Run("coordmedian-n21-d12826", coordMedian(21)) // odd n: one middle value
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
	b.Run("fillnormal-d12826", func(b *testing.B) {
		// One Gaussian-attack proposal at the MLP's d.
		const d = 12826
		v := make([]float64, d)
		for i := 0; i < b.N; i++ {
			rng.FillNormal(v, 0, 200)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/d, "ns/normal")
	})
	fillBatch := func(ds data.Dataset, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			rng := vec.NewRNG(benchSeed)
			x, y := vec.NewDense(batch, ds.Dim()), vec.NewDense(batch, ds.OutDim())
			for i := 0; i < b.N; i++ {
				if err := data.FillBatch(ds, rng, x, y); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("gmm-fillbatch-8x6", fillBatch(gmm, 8))
	spam, err := data.NewSyntheticSpambase(0.394, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("spambase-fillbatch-16x57", fillBatch(spam, 16))
	sample := func(ds data.Dataset) func(b *testing.B) {
		return func(b *testing.B) {
			rng := vec.NewRNG(benchSeed)
			x, y := make([]float64, ds.Dim()), make([]float64, ds.OutDim())
			for i := 0; i < b.N; i++ {
				ds.Sample(rng, x, y)
			}
		}
	}
	b.Run("gmm-sample-1x6", sample(gmm))
	b.Run("spambase-sample-1x57", sample(spam))
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
