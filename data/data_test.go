package data

import (
	"errors"
	"math"
	"testing"

	"krum/internal/vec"
)

func TestGaussianMixtureConstruction(t *testing.T) {
	if _, err := NewGaussianMixture(1, 2, 1, 1, 0); !errors.Is(err, ErrConfig) {
		t.Error("k=1 accepted")
	}
	if _, err := NewGaussianMixture(2, 0, 1, 1, 0); !errors.Is(err, ErrConfig) {
		t.Error("dim=0 accepted")
	}
	if _, err := NewGaussianMixture(2, 2, 0, 1, 0); !errors.Is(err, ErrConfig) {
		t.Error("radius=0 accepted")
	}
	g, err := NewGaussianMixture(3, 5, 4, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim() != 5 || g.OutDim() != 3 {
		t.Errorf("dims = (%d, %d)", g.Dim(), g.OutDim())
	}
}

func TestGaussianMixtureSamplesClusterAroundCenters(t *testing.T) {
	g, err := NewGaussianMixture(4, 6, 5, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(1)
	x := make([]float64, g.Dim())
	y := make([]float64, g.OutDim())
	classCounts := make([]int, 4)
	for i := 0; i < 2000; i++ {
		g.Sample(rng, x, y)
		// One-hot target.
		if math.Abs(vec.Sum(y)-1) > 1e-12 {
			t.Fatalf("target not one-hot: %v", y)
		}
		k := vec.Argmax(y)
		classCounts[k]++
		// Sample near the radius-5 sphere: norm within [3, 7].
		nrm := vec.Norm(x)
		if nrm < 3 || nrm > 7 {
			t.Fatalf("sample norm %v implausible for radius 5, σ 0.2", nrm)
		}
	}
	for k, c := range classCounts {
		if c < 300 {
			t.Errorf("class %d sampled only %d/2000 times", k, c)
		}
	}
}

func TestLinearRegressionStream(t *testing.T) {
	if _, err := NewLinearRegressionStream(0, 1, 0.1, 0); !errors.Is(err, ErrConfig) {
		t.Error("inDim=0 accepted")
	}
	if _, err := NewLinearRegressionStream(2, 1, -1, 0); !errors.Is(err, ErrConfig) {
		t.Error("negative noise accepted")
	}
	ls, err := NewLinearRegressionStream(3, 2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With zero noise, y must be an exact affine function of x; verify
	// via TruthParams layout: y_o = b_o + Σ_i W[i*out+o]·x_i.
	truth := ls.TruthParams()
	if len(truth) != 3*2+2 {
		t.Fatalf("TruthParams length %d", len(truth))
	}
	rng := vec.NewRNG(2)
	x := make([]float64, 3)
	y := make([]float64, 2)
	for trial := 0; trial < 50; trial++ {
		ls.Sample(rng, x, y)
		for o := 0; o < 2; o++ {
			want := truth[3*2+o]
			for i := 0; i < 3; i++ {
				want += truth[i*2+o] * x[i]
			}
			if math.Abs(want-y[o]) > 1e-9 {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, o, y[o], want)
			}
		}
	}
}

func TestFillBatchValidation(t *testing.T) {
	g, err := NewGaussianMixture(2, 3, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(0)
	if err := FillBatch(g, rng, vec.NewDense(2, 3), vec.NewDense(3, 2)); !errors.Is(err, ErrConfig) {
		t.Error("row mismatch accepted")
	}
	if err := FillBatch(g, rng, vec.NewDense(2, 4), vec.NewDense(2, 2)); !errors.Is(err, ErrConfig) {
		t.Error("width mismatch accepted")
	}
	if _, _, err := NewBatch(g, rng, 0); !errors.Is(err, ErrConfig) {
		t.Error("batch=0 accepted")
	}
	x, y, err := NewBatch(g, rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 5 || y.Rows != 5 || x.Cols != 3 || y.Cols != 2 {
		t.Errorf("batch shapes (%dx%d, %dx%d)", x.Rows, x.Cols, y.Rows, y.Cols)
	}
}

func TestDatasetsAreRNGDeterministic(t *testing.T) {
	datasets := map[string]Dataset{}
	g, err := NewGaussianMixture(3, 4, 2, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	datasets["mixture"] = g
	sp, err := NewSyntheticSpambase(0.39, 5)
	if err != nil {
		t.Fatal(err)
	}
	datasets["spambase"] = sp
	mn, err := NewSyntheticMNIST(12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	datasets["mnist"] = mn

	for name, ds := range datasets {
		t.Run(name, func(t *testing.T) {
			x1 := make([]float64, ds.Dim())
			x2 := make([]float64, ds.Dim())
			y1 := make([]float64, ds.OutDim())
			y2 := make([]float64, ds.OutDim())
			r1, r2 := vec.NewRNG(77), vec.NewRNG(77)
			for i := 0; i < 20; i++ {
				ds.Sample(r1, x1, y1)
				ds.Sample(r2, x2, y2)
				if !vec.ApproxEqual(x1, x2, 0) || !vec.ApproxEqual(y1, y2, 0) {
					t.Fatal("same RNG seed produced different samples")
				}
			}
		})
	}
}
