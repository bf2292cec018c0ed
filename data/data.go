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
	"math"
	"sync"

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
//
// Row i is the (i+1)-th of x.Rows Sample calls, and rng ends where they
// leave it. The built-in mixture, regression and spambase streams
// sample one way, in batches: they draw the whole batch's uniforms in
// the order per-row draws would and transform its normals in one
// vec.NormalRun, and their Sample is that batch of one row
// (TestFillBatchMatchesSample). Every other dataset is sampled row by
// row.
func FillBatch(ds Dataset, rng *vec.RNG, x, y *vec.Dense) error {
	if x.Rows != y.Rows {
		return fmt.Errorf("x has %d rows, y has %d: %w", x.Rows, y.Rows, ErrConfig)
	}
	if x.Cols != ds.Dim() || y.Cols != ds.OutDim() {
		return fmt.Errorf("batch shape (%d, %d), want (%d, %d): %w",
			x.Cols, y.Cols, ds.Dim(), ds.OutDim(), ErrConfig)
	}
	if b, ok := ds.(batchFiller); ok {
		b.fillBatch(rng, x, y)
		return nil
	}
	for i := 0; i < x.Rows; i++ {
		ds.Sample(rng, x.Row(i), y.Row(i))
	}
	return nil
}

// batchFiller is a Dataset that samples in batches: fillBatch fills
// the (validated) batch exactly as x.Rows Sample calls would, and
// Sample is fillBatch on one row.
type batchFiller interface {
	fillBatch(rng *vec.RNG, x, y *vec.Dense)
}

// oneRow returns v as a one-row matrix. A Sample hands it straight to
// its own type's fillBatch, so the header stays on the stack; through
// the batchFiller interface it would not.
func oneRow(v []float64) *vec.Dense { return &vec.Dense{Rows: 1, Cols: len(v), Data: v} }

// batchScratch is the reusable state of one fillBatch call: the normal
// run and the per-row draws that must wait for its normals.
type batchScratch struct {
	run     vec.NormalRun
	classes []int
	floats  []float64
}

// batchScratches recycles batchScratch values, so that warm batches do
// not allocate and nothing lands on the (per-round worker) goroutine's
// stack.
var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// ints returns sc.classes resized to n.
func (sc *batchScratch) ints(n int) []int {
	if cap(sc.classes) < n {
		sc.classes = make([]int, n)
	}
	return sc.classes[:n]
}

// float64s returns sc.floats resized to n.
func (sc *batchScratch) float64s(n int) []float64 {
	if cap(sc.floats) < n {
		sc.floats = make([]float64, n)
	}
	return sc.floats[:n]
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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
	if radius <= 0 || sigma <= 0 || !finite(radius, sigma) {
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

// Sample implements Dataset: a batch of one row.
func (g *GaussianMixture) Sample(rng *vec.RNG, x, y []float64) {
	g.fillBatch(rng, oneRow(x), oneRow(y))
}

// fillBatch implements batchFiller: each row's class by Intn, then its
// Dim() normals, centred on the class and scaled by sigma.
func (g *GaussianMixture) fillBatch(rng *vec.RNG, x, y *vec.Dense) {
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	classes := sc.ints(x.Rows)
	sc.run.Begin(rng)
	for i := range classes {
		classes[i] = rng.Intn(len(g.centers))
		sc.run.Draw(x.Cols)
	}
	sc.run.End(x.Data)
	for i, k := range classes {
		c, row := g.centers[k], x.Row(i)
		for j, z := range row {
			row[j] = c[j] + g.sigma*z
		}
		yr := y.Row(i)
		clear(yr)
		yr[k] = 1
	}
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
	if noise < 0 || !finite(noise) {
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

// Sample implements Dataset: a batch of one row.
func (l *LinearRegressionStream) Sample(rng *vec.RNG, x, y []float64) {
	l.fillBatch(rng, oneRow(x), oneRow(y))
}

// fillBatch implements batchFiller. A row is Dim() normals for x and
// then OutDim() for ε, so a batch is one FillNormal of
// Rows·(Dim()+OutDim()) normals, then assembly. That FillNormal writes
// 0 + 1·z where a row-by-row ε term would read z; the two differ only
// when z is −0, and no Box–Muller variate is: its radius is positive,
// its cos never 0, its sin −0 only at the angle −0 and the angle is
// never negative.
func (l *LinearRegressionStream) fillBatch(rng *vec.RNG, x, y *vec.Dense) {
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	in := x.Cols
	width := in + y.Cols
	z := sc.float64s(x.Rows * width)
	rng.FillNormal(z, 0, 1)
	for i := 0; i < x.Rows; i++ {
		xr, yr, zr := x.Row(i), y.Row(i), z[i*width:(i+1)*width]
		copy(xr, zr[:in])
		for o := range yr {
			yr[o] = l.b[o] + vec.Dot(l.a.Row(o), xr) + l.noise*zr[in+o]
		}
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
