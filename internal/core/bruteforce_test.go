package core

import (
	"errors"
	"math"
	"testing"

	"krum/internal/vec"
)

func TestMinimalDiameterPicksTightSubset(t *testing.T) {
	// 4 tight points, 2 far spread-out points; with f=2 the minimal
	// diameter subset of size 4 is exactly the tight cluster.
	vs := [][]float64{{0}, {0.1}, {0.2}, {0.05}, {50}, {-70}}
	md := NewMinimalDiameter(2)
	sel, err := md.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(sel) != len(want) {
		t.Fatalf("selected %v", sel)
	}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("selected %v, want %v", sel, want)
		}
	}
	dst := make([]float64, 1)
	if err := md.Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if got, want := dst[0], (0.0+0.1+0.2+0.05)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

func TestMinimalDiameterFZero(t *testing.T) {
	vs := [][]float64{{1}, {5}}
	md := NewMinimalDiameter(0)
	dst := make([]float64, 1)
	if err := md.Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 {
		t.Errorf("f=0 should average everything: %v", dst[0])
	}
}

func TestMinimalDiameterErrors(t *testing.T) {
	dst := make([]float64, 1)
	md := NewMinimalDiameter(0)
	if err := md.Aggregate(dst, nil); !errors.Is(err, ErrNoVectors) {
		t.Errorf("empty: %v", err)
	}
	if err := NewMinimalDiameter(5).Aggregate(dst, [][]float64{{1}, {2}}); !errors.Is(err, ErrTooFewWorkers) {
		t.Errorf("f≥n: %v", err)
	}
	big := make([][]float64, 40)
	for i := range big {
		big[i] = []float64{float64(i)}
	}
	// C(40, 20) ≈ 1.4·10¹¹ subsets, far past maxSubsets.
	if err := NewMinimalDiameter(20).Aggregate(dst, big); !errors.Is(err, ErrBadParameter) {
		t.Errorf("subset explosion not caught: %v", err)
	}
}

func TestMinimalDiameterAgreesWithKrumOnCleanCluster(t *testing.T) {
	// With a single tight cluster and distant outliers both rules must
	// derive their output from the cluster.
	rng := vec.NewRNG(13)
	const n, f, d = 9, 2, 3
	center := rng.NewNormal(d, 0, 1)
	vs := clusterWithOutliers(rng, n, f, d, center, 0.01, 300)
	md := NewMinimalDiameter(f)
	sel, err := md.Select(vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sel {
		if i >= n-f {
			t.Errorf("minimal-diameter subset contains outlier %d", i)
		}
	}
}

func TestNextCombination(t *testing.T) {
	idx := []int{0, 1}
	var all [][2]int
	all = append(all, [2]int{idx[0], idx[1]})
	for nextCombination(idx, 4) {
		all = append(all, [2]int{idx[0], idx[1]})
	}
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(all) != len(want) {
		t.Fatalf("enumerated %v", all)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("enumerated %v, want %v", all, want)
		}
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k, want int
	}{
		{n: 5, k: 2, want: 10},
		{n: 10, k: 0, want: 1},
		{n: 10, k: 10, want: 1},
		{n: 10, k: 11, want: 0},
		{n: 6, k: 3, want: 20},
		{n: 52, k: 5, want: 2598960},
	}
	for _, tt := range tests {
		if got := binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("C(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
	if binomial(1000, 500) != -1 {
		t.Error("overflow not detected")
	}
}
