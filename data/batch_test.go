package data

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"krum/internal/vec"
)

// builtins returns one of each built-in dataset, at the shapes that
// matter to FillBatch: the mixture at an even and an odd dimension,
// regression rows of 7 (odd) and 8 normals, spambase (57, odd), mnist
// (no batch path: its pixel noise is already drawn in FillNormal
// chunks) and a ClassFilter (no batch path: it rejects rows).
func builtins(t *testing.T) map[string]Dataset {
	t.Helper()
	must := func(ds Dataset, err error) Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	gmm6 := must(NewGaussianMixture(3, 6, 4, 0.5, 1))
	return map[string]Dataset{
		"gmm-dim6":      gmm6,
		"gmm-dim5":      must(NewGaussianMixture(4, 5, 2, 1.5, 2)),
		"regression5x2": must(NewLinearRegressionStream(5, 2, 0.3, 3)),
		"regression7x1": must(NewLinearRegressionStream(7, 1, 0.1, 4)),
		"spambase":      must(NewSyntheticSpambase(0.394, 5)),
		"mnist9":        must(NewSyntheticMNIST(9, 0.05)),
		"classfilter":   must(NewClassFilter(gmm6, []int{0, 2})),
	}
}

// zeroWordRNG returns a generator whose first word is 0: NewRNG seeds
// its second state word — the one the first output is a function of —
// with SplitMix64 of seed + 2·golden, which maps 0 to 0.
func zeroWordRNG(t *testing.T) *vec.RNG {
	t.Helper()
	golden := uint64(0x9E3779B97F4A7C15)
	seed := -(2 * golden)
	if vec.NewRNG(seed).Uint64() != 0 {
		t.Fatal("the zero-word generator's first word is not 0")
	}
	return vec.NewRNG(seed)
}

// TestFillBatchMatchesSample: under every tier, on every built-in
// dataset, FillBatch and x.Rows one-row Sample calls each equal the
// per-row reference (sampleReference) — x bit for bit, y equal — and
// leave the generator where it leaves it: the next normal (a cached
// variate or none) and the next raw word agree. Batches of 1 to 17
// rows and of 64 cross both parities of the run and the four-pair
// vector seams; each is entered with and without a cached variate,
// from a seeded generator and from one whose first word is 0
// (regression's first u, the other datasets' first class or geometry
// draw).
func TestFillBatchMatchesSample(t *testing.T) {
	sizes := []int{64}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	generators := map[string]func() *vec.RNG{
		"seeded":    func() *vec.RNG { return vec.NewRNG(11) },
		"zero-word": func() *vec.RNG { return zeroWordRNG(t) },
	}
	forEachTier(t, func(t *testing.T) {
		for name, ds := range builtins(t) {
			reference := sampleReference(ds)
			for gname, newRNG := range generators {
				for _, rows := range sizes {
					for prior := 0; prior <= 1; prior++ {
						for _, path := range []string{"FillBatch", "Sample"} {
							where := fmt.Sprintf("%s %s %s rows=%d prior=%d", path, name, gname, rows, prior)
							got, want := newRNG(), newRNG()
							for range prior {
								got.NormFloat64()
								want.NormFloat64()
							}
							x, y := vec.NewDense(rows, ds.Dim()), vec.NewDense(rows, ds.OutDim())
							if path == "FillBatch" {
								if err := FillBatch(ds, got, x, y); err != nil {
									t.Fatal(err)
								}
							} else {
								for i := 0; i < rows; i++ {
									ds.Sample(got, x.Row(i), y.Row(i))
								}
							}
							wx, wy := make([]float64, ds.Dim()), make([]float64, ds.OutDim())
							for i := 0; i < rows; i++ {
								reference(want, wx, wy)
								for j, w := range wx {
									if g := x.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
										t.Fatalf("%s: x[%d][%d] is %x, the reference's %x", where, i, j, math.Float64bits(g), math.Float64bits(w))
									}
								}
								for j, w := range wy {
									if g := y.At(i, j); g != w {
										t.Fatalf("%s: y[%d][%d] is %v, the reference's %v", where, i, j, g, w)
									}
								}
							}
							if gn, wn := got.NormFloat64(), want.NormFloat64(); math.Float64bits(gn) != math.Float64bits(wn) {
								t.Fatalf("%s: next normal %x, the reference's %x", where, math.Float64bits(gn), math.Float64bits(wn))
							}
							if gw, ww := got.Uint64(), want.Uint64(); gw != ww {
								t.Fatalf("%s: next word %x, the reference's %x", where, gw, ww)
							}
						}
					}
				}
			}
		}
	})
}

// TestFillBatchAllocations: on each dataset that samples in batches, a
// warm FillBatch and a warm one-row Sample allocate nothing — the
// scratch is pooled, not made per call and not held on the stack, and
// Sample's one-row headers stay on its stack.
func TestFillBatchAllocations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops values at random under -race")
	}
	all := builtins(t)
	forEachTier(t, func(t *testing.T) {
		for _, name := range []string{"gmm-dim6", "gmm-dim5", "regression5x2", "spambase"} {
			ds := all[name]
			if _, ok := ds.(batchFiller); !ok {
				t.Fatalf("%s has no batch path", name)
			}
			rng := vec.NewRNG(1)
			x, y := vec.NewDense(16, ds.Dim()), vec.NewDense(16, ds.OutDim())
			if n := testing.AllocsPerRun(100, func() {
				if err := FillBatch(ds, rng, x, y); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: %v allocations per warm FillBatch", name, n)
			}
			if n := testing.AllocsPerRun(100, func() { ds.Sample(rng, x.Row(0), y.Row(0)) }); n != 0 {
				t.Errorf("%s: %v allocations per warm one-row Sample", name, n)
			}
		}
	})
}

// TestConstructorsRejectNonFinite: NaN and ±Inf float parameters are
// configuration errors for every dataset constructor, not streams of
// NaN features or of one class.
func TestConstructorsRejectNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, build := range map[string]func() error{
			"gmm radius": func() error { _, err := NewGaussianMixture(3, 6, bad, 0.5, 1); return err },
			"gmm sigma":  func() error { _, err := NewGaussianMixture(3, 6, 4, bad, 1); return err },
			"regression": func() error { _, err := NewLinearRegressionStream(5, 2, bad, 1); return err },
			"spambase":   func() error { _, err := NewSyntheticSpambase(bad, 1); return err },
			"mnist":      func() error { _, err := NewSyntheticMNIST(16, bad); return err },
		} {
			if err := build(); !errors.Is(err, ErrConfig) {
				t.Errorf("%s = %v: got %v, want ErrConfig", name, bad, err)
			}
		}
	}
}
