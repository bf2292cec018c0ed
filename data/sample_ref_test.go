package data

import "krum/internal/vec"

// The per-row Sample bodies the built-in streams had before their
// Sample became a one-row batch, kept verbatim. TestFillBatchMatchesSample
// pins FillBatch and Sample to them bit for bit.

// gmmSampleReference is GaussianMixture.Sample row by row: the class,
// then Dim() normals.
func gmmSampleReference(g *GaussianMixture, rng *vec.RNG, x, y []float64) {
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

// regressionSampleReference is LinearRegressionStream.Sample row by
// row: Dim() normals for x, then one normal per output for ε.
func regressionSampleReference(l *LinearRegressionStream, rng *vec.RNG, x, y []float64) {
	rng.FillNormal(x, 0, 1)
	for o := 0; o < l.a.Rows; o++ {
		y[o] = l.b[o] + vec.Dot(l.a.Row(o), x) + l.noise*rng.NormFloat64()
	}
}

// spambaseSampleReference is SyntheticSpambase.Sample row by row: the
// class, the verbosity, then 57 normals.
func spambaseSampleReference(s *SyntheticSpambase, rng *vec.RNG, x, y []float64) {
	spam := rng.Float64() < s.spamRate
	profile := s.hamFreq
	if spam {
		profile = s.spamFreq
	}
	// A per-message "verbosity" factor correlates all frequencies,
	// mimicking document-length effects in real corpora.
	verbosity := 0.6 + 0.8*rng.Float64()
	for j := range x {
		x[j] = s.feature(j, profile, verbosity, rng.NormFloat64())
	}
	if spam {
		y[0] = 1
	} else {
		y[0] = 0
	}
}

// sampleReference returns ds's per-row reference sampler: the verbatim
// body above for a built-in stream that samples in batches, and
// ds.Sample for every other dataset, which samples row by row.
func sampleReference(ds Dataset) func(rng *vec.RNG, x, y []float64) {
	switch ds := ds.(type) {
	case *GaussianMixture:
		return func(rng *vec.RNG, x, y []float64) { gmmSampleReference(ds, rng, x, y) }
	case *LinearRegressionStream:
		return func(rng *vec.RNG, x, y []float64) { regressionSampleReference(ds, rng, x, y) }
	case *SyntheticSpambase:
		return func(rng *vec.RNG, x, y []float64) { spambaseSampleReference(ds, rng, x, y) }
	}
	return ds.Sample
}
