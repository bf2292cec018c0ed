package attack

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// HiddenCoordinate is the attack motivating the Bulyan follow-up work
// (El Mhamdi, Guerraoui, Rouault — ICML 2018), included as the natural
// stress test beyond this paper's attacks: the Byzantine proposals match
// the correct gradient estimate on every coordinate but plant a spike on
// a single coordinate, calibrated so that in high dimension the
// Euclidean distance penalty stays within the natural spread of the
// correct proposals. Krum's selection metric (sum of squared distances)
// barely notices the proposal, yet if selected it corrupts one model
// coordinate per round; Bulyan's coordinate-wise trimming removes it.
type HiddenCoordinate struct {
	// Coordinate is the index attacked (wrapped modulo the dimension).
	Coordinate int
	// Margin scales the spike relative to the correct proposals'
	// per-coordinate spread; values near 1 keep the attacker inside
	// Krum's selection radius. 0 means the default 1.0.
	Margin float64
}

var _ Strategy = HiddenCoordinate{}

// Name implements Strategy. The returned string is a valid registry
// spec reporting the effective margin.
func (h HiddenCoordinate) Name() string {
	return fmt.Sprintf("hiddencoord(j=%d,margin=%g)", h.Coordinate, h.effMargin())
}

func (h HiddenCoordinate) effMargin() float64 {
	if h.Margin == 0 {
		return 1
	}
	return h.Margin
}

// Propose implements Strategy.
func (h HiddenCoordinate) Propose(ctx *Context) [][]float64 {
	d := ctx.dim()
	mean := make([]float64, d)
	ctx.correctMean(mean)
	// Estimate the correct proposals' total spread: the spike hides as
	// long as its squared magnitude is comparable to the natural
	// squared distance between two correct proposals.
	var spread2 float64
	for _, v := range ctx.Correct {
		spread2 += vec.Dist2(v, mean)
	}
	if len(ctx.Correct) > 0 {
		spread2 /= float64(len(ctx.Correct))
	}
	spike := h.effMargin() * math.Sqrt(2*spread2+1e-12)
	j := ((h.Coordinate % d) + d) % d

	out := ctx.lend()
	for _, v := range out {
		copy(v, mean)
		// Small per-attacker jitter keeps the colluders from being
		// exact duplicates (exact duplicates have score 0 against each
		// other once f ≥ 2, which would make the attack easier, not
		// harder — we keep the conservative version).
		for k := range v {
			v[k] += 0.01 * spike * ctx.RNG.NormFloat64() / math.Sqrt(float64(d))
		}
		v[j] = mean[j] + spike
	}
	return out
}
