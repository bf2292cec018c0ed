// Package stats provides the streaming statistical estimators used by the
// Byzantine-resilience verifier (Definition 3.2 of the paper) and by the
// experiment harness: Welford mean/variance, raw moments up to order four,
// quantiles, and simple normal-approximation confidence intervals.
//
// Everything is single-pass and allocation-free after construction so it
// can be embedded in long Monte-Carlo loops.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by estimators queried before any observation.
var ErrNoData = errors.New("stats: no observations")

// Welford accumulates count, mean and (unbiased) variance in one pass
// using Welford's numerically stable recurrence. The zero value is ready
// to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Moments accumulates the raw moments E[X^r] for r = 1..4 in one pass.
// These are exactly the quantities condition (ii) of Definition 3.2
// bounds: E‖F‖^r for r = 2, 3, 4 against products of moments of the
// correct gradient estimator G. The zero value is ready to use.
type Moments struct {
	n          int
	s1, s2, s3 float64
	s4         float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	x2 := x * x
	m.s1 += x
	m.s2 += x2
	m.s3 += x2 * x
	m.s4 += x2 * x2
}

// N returns the number of observations.
func (m *Moments) N() int { return m.n }

// Raw returns the estimated raw moment E[X^r] for r in 1..4.
// It panics for r outside that range and returns 0 before any data.
func (m *Moments) Raw(r int) float64 {
	if m.n == 0 {
		return 0
	}
	n := float64(m.n)
	switch r {
	case 1:
		return m.s1 / n
	case 2:
		return m.s2 / n
	case 3:
		return m.s3 / n
	case 4:
		return m.s4 / n
	default:
		panic("stats: Moments.Raw supports r in 1..4")
	}
}

// VecMean accumulates the element-wise mean of a stream of equal-length
// vectors. It is used to estimate E[F] for condition (i) of
// Definition 3.2. Construct with NewVecMean.
type VecMean struct {
	n   int
	sum []float64
}

// NewVecMean returns an accumulator for vectors of dimension d.
func NewVecMean(d int) *VecMean {
	return &VecMean{sum: make([]float64, d)}
}

// Add incorporates one vector observation. It panics on dimension
// mismatch.
func (v *VecMean) Add(x []float64) {
	if len(x) != len(v.sum) {
		panic("stats: VecMean dimension mismatch")
	}
	v.n++
	for i, xi := range x {
		v.sum[i] += xi
	}
}

// N returns the number of observations.
func (v *VecMean) N() int { return v.n }

// Mean writes the current mean into dst and returns it. If dst is nil a
// fresh slice is allocated.
func (v *VecMean) Mean(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(v.sum))
	}
	if v.n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	inv := 1 / float64(v.n)
	for i, s := range v.sum {
		dst[i] = s * inv
	}
	return dst
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample using linear
// interpolation between order statistics. The input slice is not
// modified. It returns ErrNoData for an empty sample.
func Quantile(sample []float64, q float64) (float64, error) {
	if len(sample) == 0 {
		return 0, ErrNoData
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the sample median, or ErrNoData for an empty sample.
func Median(sample []float64) (float64, error) {
	return Quantile(sample, 0.5)
}

// MeanOf returns the arithmetic mean of sample, or ErrNoData if empty.
func MeanOf(sample []float64) (float64, error) {
	if len(sample) == 0 {
		return 0, ErrNoData
	}
	var s float64
	for _, x := range sample {
		s += x
	}
	return s / float64(len(sample)), nil
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns
// (a, b, r²). It is used by the Lemma 4.1 harness to fit measured Krum
// cost against n²·d. It returns an error with fewer than two points or
// degenerate x.
func LinearFit(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		return 0, 0, 0, ErrNoData
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, errors.New("stats: LinearFit degenerate x")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1, nil
	}
	var ssRes float64
	for i := range x {
		r := y[i] - (a + b*x[i])
		ssRes += r * r
	}
	r2 = 1 - ssRes/ssTot
	return a, b, r2, nil
}
