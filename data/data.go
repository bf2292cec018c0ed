// Package data provides the dataset substrates for the reproduction.
// The paper's experiments (full version) use MNIST and UCI Spambase;
// neither ships with an offline stdlib-only repository, so this package
// implements generative stand-ins that exercise the identical code path:
// i.i.d. sample streams with real intra-class structure, from which
// workers draw mini-batches to compute gradient estimates
// (V = G(x, ξ), Section 2 of the paper). See the workload substitution
// note in EXPERIMENTS.md for the rationale.
//
// All generators are deterministic given an RNG, so every experiment is
// reproducible from a single seed.
package data

import (
	"errors"
	"fmt"

	"krum/internal/vec"
)

// ErrConfig is returned for invalid dataset configurations.
var ErrConfig = errors.New("data: bad configuration")

// Dataset is an infinite i.i.d. sample stream — the distribution the
// paper's correct workers draw ξ from. Implementations must be
// stateless with respect to sampling: all randomness comes from the
// caller-provided RNG, so distinct workers with split RNGs draw
// independent samples from the same distribution.
type Dataset interface {
	// Dim returns the feature dimension.
	Dim() int
	// OutDim returns the target dimension (1 for scalar/binary targets,
	// #classes for one-hot).
	OutDim() int
	// Sample fills x (len Dim) and y (len OutDim) with one draw.
	Sample(rng *vec.RNG, x, y []float64)
}

// FillBatch draws x.Rows i.i.d. samples into the batch matrices. The
// two matrices must have x.Rows == y.Rows, x.Cols == ds.Dim() and
// y.Cols == ds.OutDim().
func FillBatch(ds Dataset, rng *vec.RNG, x, y *vec.Dense) error {
	if x.Rows != y.Rows {
		return fmt.Errorf("x has %d rows, y has %d: %w", x.Rows, y.Rows, ErrConfig)
	}
	if x.Cols != ds.Dim() || y.Cols != ds.OutDim() {
		return fmt.Errorf("batch shape (%d, %d), want (%d, %d): %w",
			x.Cols, y.Cols, ds.Dim(), ds.OutDim(), ErrConfig)
	}
	for i := 0; i < x.Rows; i++ {
		ds.Sample(rng, x.Row(i), y.Row(i))
	}
	return nil
}

// NewBatch allocates and fills a batch of the given size.
func NewBatch(ds Dataset, rng *vec.RNG, batch int) (*vec.Dense, *vec.Dense, error) {
	if batch <= 0 {
		return nil, nil, fmt.Errorf("batch %d: %w", batch, ErrConfig)
	}
	x := vec.NewDense(batch, ds.Dim())
	y := vec.NewDense(batch, ds.OutDim())
	if err := FillBatch(ds, rng, x, y); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

// GaussianMixture is a K-class classification stream: class k is an
// isotropic Gaussian around its center, targets are one-hot. It is the
// simplest workload on which mis-aggregation is visible, used heavily in
// tests and the quickstart example. Construct with NewGaussianMixture.
type GaussianMixture struct {
	centers [][]float64
	sigma   float64
}

// NewGaussianMixture places k class centers deterministically (from
// seed) on a sphere of the given radius in dim dimensions, with
// per-class spread sigma.
func NewGaussianMixture(k, dim int, radius, sigma float64, seed uint64) (*GaussianMixture, error) {
	if k < 2 || dim < 1 {
		return nil, fmt.Errorf("k=%d dim=%d: %w", k, dim, ErrConfig)
	}
	if radius <= 0 || sigma <= 0 {
		return nil, fmt.Errorf("radius=%g sigma=%g: %w", radius, sigma, ErrConfig)
	}
	rng := vec.NewRNG(seed)
	centers := make([][]float64, k)
	for i := range centers {
		c := rng.NewNormal(dim, 0, 1)
		nrm := vec.Norm(c)
		if nrm == 0 {
			nrm = 1
		}
		vec.Scale(radius/nrm, c)
		centers[i] = c
	}
	return &GaussianMixture{centers: centers, sigma: sigma}, nil
}

// Dim implements Dataset.
func (g *GaussianMixture) Dim() int { return len(g.centers[0]) }

// OutDim implements Dataset.
func (g *GaussianMixture) OutDim() int { return len(g.centers) }

// Sample implements Dataset.
func (g *GaussianMixture) Sample(rng *vec.RNG, x, y []float64) {
	k := rng.Intn(len(g.centers))
	c := g.centers[k]
	for i := range x {
		x[i] = c[i] + g.sigma*rng.NormFloat64()
	}
	for i := range y {
		y[i] = 0
	}
	y[k] = 1
}

// LinearRegressionStream is the strongly convex regression workload
// y = A·x + b + ε used for the Proposition 4.3 convergence experiments:
// its quadratic cost satisfies every assumption of the theorem with
// explicit constants. Construct with NewLinearRegressionStream.
type LinearRegressionStream struct {
	a     *vec.Dense // outDim × inDim
	b     []float64
	noise float64
}

// NewLinearRegressionStream draws a ground-truth linear map
// deterministically from seed; ε is N(0, noise²) per output coordinate.
func NewLinearRegressionStream(inDim, outDim int, noise float64, seed uint64) (*LinearRegressionStream, error) {
	if inDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("inDim=%d outDim=%d: %w", inDim, outDim, ErrConfig)
	}
	if noise < 0 {
		return nil, fmt.Errorf("noise=%g: %w", noise, ErrConfig)
	}
	rng := vec.NewRNG(seed)
	a := vec.NewDense(outDim, inDim)
	rng.FillNormal(a.Data, 0, 1)
	return &LinearRegressionStream{
		a:     a,
		b:     rng.NewNormal(outDim, 0, 1),
		noise: noise,
	}, nil
}

// Dim implements Dataset.
func (l *LinearRegressionStream) Dim() int { return l.a.Cols }

// OutDim implements Dataset.
func (l *LinearRegressionStream) OutDim() int { return l.a.Rows }

// Sample implements Dataset.
func (l *LinearRegressionStream) Sample(rng *vec.RNG, x, y []float64) {
	rng.FillNormal(x, 0, 1)
	for o := 0; o < l.a.Rows; o++ {
		y[o] = l.b[o] + vec.Dot(l.a.Row(o), x) + l.noise*rng.NormFloat64()
	}
}

// TruthParams returns the flat ground-truth parameters in the layout of
// model.NewLinearRegression (W row-major in×out, then bias), letting
// tests measure parameter-recovery error directly.
func (l *LinearRegressionStream) TruthParams() []float64 {
	in, out := l.a.Cols, l.a.Rows
	p := make([]float64, in*out+out)
	for i := 0; i < in; i++ {
		for o := 0; o < out; o++ {
			p[i*out+o] = l.a.At(o, i)
		}
	}
	copy(p[in*out:], l.b)
	return p
}
