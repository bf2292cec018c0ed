package attack

import (
	"fmt"
	"math"
)

// LittleIsEnough is the "a little is enough" attack (Baruch, Baruch,
// Goldberg — NeurIPS 2019), included as the stealth stress test from
// the post-Krum literature: instead of proposing outrageous vectors,
// all f colluders shift their proposal from the estimated mean by
// Z standard deviations per coordinate, in the direction opposing the
// gradient. With Z small enough the proposals sit inside the honest
// point cloud — distance-based selection cannot distinguish them — yet
// the coordinated bias slows or reverses learning when f is a large
// minority.
type LittleIsEnough struct {
	// Z is the per-coordinate shift in standard deviations; the NeurIPS
	// paper derives the largest undetectable value from n and f (≈ 1
	// for typical ratios). 0 means 1.0.
	Z float64
}

var _ Strategy = LittleIsEnough{}

// Name implements Strategy. The returned string is a valid registry
// spec reporting the effective shift.
func (l LittleIsEnough) Name() string { return fmt.Sprintf("littleisenough(z=%g)", l.effZ()) }

func (l LittleIsEnough) effZ() float64 {
	if l.Z == 0 {
		return 1
	}
	return l.Z
}

// Propose implements Strategy.
func (l LittleIsEnough) Propose(ctx *Context) [][]float64 {
	d := ctx.dim()
	mean := make([]float64, d)
	ctx.correctMean(mean)
	// Per-coordinate standard deviation of the correct proposals.
	std := make([]float64, d)
	if len(ctx.Correct) > 1 {
		for _, v := range ctx.Correct {
			for j, x := range v {
				diff := x - mean[j]
				std[j] += diff * diff
			}
		}
		inv := 1 / float64(len(ctx.Correct)-1)
		for j := range std {
			std[j] = math.Sqrt(std[j] * inv)
		}
	}
	z := l.effZ()
	out := ctx.lend()
	if len(out) == 0 {
		return out
	}
	proposal := out[0]
	for j := range proposal {
		// Shift against the gradient estimate's sign, coordinate-wise.
		dir := 1.0
		if mean[j] > 0 {
			dir = -1
		}
		proposal[j] = mean[j] + dir*z*std[j]
	}
	return replicate(out)
}
