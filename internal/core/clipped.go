package core

import "krum/internal/vec"

// ClippedMean is the norm-clipping baseline from the practical
// robust-aggregation literature: every proposal is rescaled to at most
// the median proposal norm, then averaged. It defeats pure
// large-magnitude attacks (Gaussian σ=200, scaled omniscient) at O(n·d)
// cost, but — unlike Krum — provides no directional guarantee: f
// correctly-sized malicious vectors still shift the mean by Θ(f/n) in
// an arbitrary direction, so it fails Definition 3.2 condition (i)
// against the sign-flip adversary. Included as an ablation baseline.
type ClippedMean struct{}

var _ Rule = ClippedMean{}

// Name implements Rule.
func (ClippedMean) Name() string { return "clippedmean" }

// Aggregate implements Rule.
func (ClippedMean) Aggregate(dst []float64, vectors [][]float64) error {
	if err := checkInputs(dst, vectors); err != nil {
		return err
	}
	n := len(vectors)
	norms := make([]float64, n)
	for i, v := range vectors {
		norms[i] = vec.Norm(v)
	}
	clip := medianOf(append([]float64(nil), norms...))
	vec.Zero(dst)
	for i, v := range vectors {
		w := 1.0
		if norms[i] > clip && norms[i] > 0 {
			w = clip / norms[i]
		}
		vec.Axpy(w, v, dst)
	}
	vec.Scale(1/float64(n), dst)
	return nil
}
