// Package attack implements the Byzantine worker behaviours used in the
// paper's analysis and experiments. The threat model is the paper's
// Section 2: Byzantine workers have full knowledge of the system — the
// aggregation rule, the parameter vector, and the proposals of every
// correct worker in the current round — and may collude.
//
// Each Strategy receives that omniscient view through a Context and
// returns exactly f proposals. Strategies must not mutate the Context's
// exported slices.
package attack

import (
	"errors"
	"fmt"

	"krum/internal/vec"
)

// ErrConfig is returned for invalid attack configurations.
var ErrConfig = errors.New("attack: bad configuration")

// Context is the omniscient view handed to a Strategy each round. A
// caller may build a fresh one per round or keep one and update its
// fields; keeping it lets the built-in strategies reuse its proposal
// vectors (see Strategy.Propose).
type Context struct {
	// Round is the current synchronous round t.
	Round int
	// Params is the parameter vector x_t the server broadcast.
	Params []float64
	// Correct holds the proposals of the n − f correct workers
	// (read-only).
	Correct [][]float64
	// F is the number of Byzantine proposals to produce.
	F int
	// RNG is the adversary's private randomness.
	RNG *vec.RNG

	// arena holds the F vectors lend hands out.
	arena [][]float64
}

// lend returns F vectors of the proposal dimension with arbitrary
// contents for a strategy to fill and return. They belong to the
// Context and are handed out again by its next lend, so a round loop
// that keeps one Context allocates its Byzantine proposals once (at
// d = 12 826 and f = 6 they were a third of everything a training cell
// allocated).
func (c *Context) lend() [][]float64 {
	d := c.dim()
	if len(c.arena) != c.F || (c.F > 0 && len(c.arena[0]) != d) {
		c.arena = make([][]float64, c.F)
		for i := range c.arena {
			c.arena[i] = make([]float64, d)
		}
	}
	return c.arena
}

// dim returns the proposal dimension.
func (c *Context) dim() int {
	if len(c.Correct) > 0 {
		return len(c.Correct[0])
	}
	return len(c.Params)
}

// correctMean writes the mean of the correct proposals — the
// adversary's best estimate of the true gradient — into dst (zero when
// there are none).
func (c *Context) correctMean(dst []float64) {
	if len(c.Correct) == 0 {
		vec.Zero(dst)
		return
	}
	vec.Mean(dst, c.Correct)
}

// replay fills dst with the correct proposal src, or with zeros when
// there are no correct workers to imitate.
func (c *Context) replay(dst []float64, src int) {
	if len(c.Correct) == 0 {
		vec.Zero(dst)
		return
	}
	copy(dst, c.Correct[src%len(c.Correct)])
}

// replicate copies out[0] into every other vector of out: colluders
// proposing one common vector.
func replicate(out [][]float64) [][]float64 {
	for i := 1; i < len(out); i++ {
		copy(out[i], out[0])
	}
	return out
}

// scaledMean is the proposal set of colluders who all submit
// scale × the mean of the correct proposals.
func (c *Context) scaledMean(scale float64) [][]float64 {
	out := c.lend()
	if len(out) > 0 {
		c.correctMean(out[0])
		vec.Scale(scale, out[0])
	}
	return replicate(out)
}

// Strategy produces the Byzantine proposals for one round.
type Strategy interface {
	// Name identifies the attack in experiment tables.
	Name() string
	// Propose returns exactly ctx.F vectors. The caller may read them
	// until the next Propose on the same Context and must copy what it
	// keeps longer: the built-in strategies fill vectors the Context
	// owns and hand the same ones out again next round. With a fresh
	// Context per call the vectors are fresh too.
	Propose(ctx *Context) [][]float64
}

// None is the absence of attack: Byzantine slots behave exactly like
// correct workers by replaying (copies of) correct proposals. Baseline
// rows of every experiment use it.
type None struct{}

var _ Strategy = None{}

// Name implements Strategy.
func (None) Name() string { return "none" }

// Propose implements Strategy.
func (None) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	for i, v := range out {
		ctx.replay(v, i)
	}
	return out
}

// Gaussian is the "Gaussian attack" of the full paper's Figure 4: each
// Byzantine worker proposes a random vector drawn from a
// high-variance isotropic Gaussian (the paper uses σ = 200), i.e. pure
// garbage that averaging happily folds in.
type Gaussian struct {
	// Sigma is the per-coordinate standard deviation. Defaults to the
	// paper's 200 when 0.
	Sigma float64
}

var _ Strategy = Gaussian{}

// Name implements Strategy. The returned string is a valid registry
// spec reporting the effective sigma: Parse(g.Name()) reconstructs the
// attack.
func (g Gaussian) Name() string { return fmt.Sprintf("gaussian(sigma=%g)", g.effSigma()) }

func (g Gaussian) effSigma() float64 {
	if g.Sigma == 0 {
		return 200
	}
	return g.Sigma
}

// Propose implements Strategy.
func (g Gaussian) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	for _, v := range out {
		ctx.RNG.FillNormal(v, 0, g.effSigma())
	}
	return out
}

// Omniscient is the full paper's Figure 5 attack: the adversary
// estimates the true gradient from the correct proposals and proposes
// its negation scaled to a large magnitude, actively driving the
// parameter vector uphill. All f colluders propose the same vector.
type Omniscient struct {
	// Scale multiplies the negated gradient estimate; the paper uses
	// "an arbitrarily large factor". Defaults to 20 when 0.
	Scale float64
}

var _ Strategy = Omniscient{}

// Name implements Strategy. The returned string is a valid registry
// spec reporting the effective scale.
func (o Omniscient) Name() string { return fmt.Sprintf("omniscient(scale=%g)", o.effScale()) }

func (o Omniscient) effScale() float64 {
	if o.Scale == 0 {
		return 20
	}
	return o.Scale
}

// Propose implements Strategy.
func (o Omniscient) Propose(ctx *Context) [][]float64 {
	return ctx.scaledMean(-o.effScale())
}

// SignFlip proposes the exact negation of the gradient estimate without
// magnification — a stealthier variant of Omniscient that large-norm
// filters cannot catch.
type SignFlip struct{}

var _ Strategy = SignFlip{}

// Name implements Strategy.
func (SignFlip) Name() string { return "signflip" }

// Propose implements Strategy.
func (SignFlip) Propose(ctx *Context) [][]float64 {
	return ctx.scaledMean(-1)
}

// LinearTakeover is the constructive proof of Lemma 3.1: against a
// KNOWN linear rule F = Σ λ_i·V_i, the single Byzantine worker occupying
// the last slot solves for the proposal that forces the aggregate to be
// exactly Target. Any remaining Byzantine workers (F > 1) blend in by
// replaying correct proposals. Construct with NewLinearTakeover.
type LinearTakeover struct {
	// Target is the vector U the attacker forces the rule to output.
	Target []float64
	// Weights are the λ_i of the linear rule under attack (length n);
	// the attacker is assumed to know them (full-knowledge model). The
	// LAST weight belongs to the attacking worker.
	Weights []float64
}

// NewLinearTakeover validates and builds the Lemma 3.1 attack.
func NewLinearTakeover(target, weights []float64) (*LinearTakeover, error) {
	if len(target) == 0 {
		return nil, fmt.Errorf("empty target: %w", ErrConfig)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("empty weights: %w", ErrConfig)
	}
	if weights[len(weights)-1] == 0 {
		return nil, fmt.Errorf("attacker weight is zero — Lemma 3.1 needs non-zero coefficients: %w", ErrConfig)
	}
	return &LinearTakeover{Target: vec.Clone(target), Weights: vec.Clone(weights)}, nil
}

var _ Strategy = (*LinearTakeover)(nil)

// Name implements Strategy.
func (*LinearTakeover) Name() string { return "lineartakeover" }

// Propose implements Strategy.
func (a *LinearTakeover) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	// Benign camouflage for all but the last Byzantine slot.
	for i := 0; i < ctx.F-1; i++ {
		ctx.replay(out[i], i)
	}
	// The proposals will occupy slots n−f .. n−1 in order; slot n−1
	// carries the takeover vector:
	// V_b = (U − Σ_{i<n−1} λ_i·V_i) / λ_{n−1}.
	forced := out[ctx.F-1]
	if len(a.Target) != len(forced) {
		panic(fmt.Sprintf("attack: lineartakeover target has dimension %d, proposals have %d", len(a.Target), len(forced)))
	}
	copy(forced, a.Target)
	idx := 0
	for _, v := range ctx.Correct {
		vec.Axpy(-a.Weights[idx], v, forced)
		idx++
	}
	for i := 0; i < ctx.F-1; i++ {
		vec.Axpy(-a.Weights[idx], out[i], forced)
		idx++
	}
	vec.Scale(1/a.Weights[idx], forced)
	return out
}

// MedoidCollusion is the Figure 2 attack on the distance-based rule:
// f − 1 colluders propose vectors in an arbitrarily remote area B,
// dragging the barycenter of all proposals away from the correct area
// C; the last colluder proposes that shifted barycenter b, which then
// minimizes the sum of squared distances and gets selected. Krum
// precludes it because remote decoys never enter anyone's n − f − 2
// neighbourhood sums.
type MedoidCollusion struct {
	// Offset is how far (per coordinate) area B lies from the correct
	// area; the lemma allows it to be arbitrary. Defaults to 1e4
	// when 0.
	Offset float64
}

var _ Strategy = MedoidCollusion{}

// Name implements Strategy. The returned string is a valid registry
// spec reporting the effective offset.
func (m MedoidCollusion) Name() string {
	return fmt.Sprintf("medoidcollusion(offset=%g)", m.effOffset())
}

func (m MedoidCollusion) effOffset() float64 {
	if m.Offset == 0 {
		return 1e4
	}
	return m.Offset
}

// Propose implements Strategy.
func (m MedoidCollusion) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	if decoys := out[:ctx.F-1]; len(decoys) > 0 {
		ctx.correctMean(decoys[0])
		for j := range decoys[0] {
			decoys[0][j] += m.effOffset()
		}
		replicate(decoys)
	}
	// The last proposal is the fixpoint barycenter of all n proposals:
	// b = (Σ correct + Σ decoys)/(n−1) solves b = (Σ others + b)/n.
	bary := out[ctx.F-1]
	vec.Zero(bary)
	for _, v := range ctx.Correct {
		vec.Axpy(1, v, bary)
	}
	for i := 0; i < ctx.F-1; i++ {
		vec.Axpy(1, out[i], bary)
	}
	n := len(ctx.Correct) + ctx.F
	vec.Scale(1/float64(n-1), bary)
	return out
}

// Mimic replays the first correct worker's proposal from every
// Byzantine slot. It is indistinguishable from honesty in value space —
// the control attack for selection-histogram experiments (a selection
// of a mimicking Byzantine worker is harmless, which the derived table
// T1 makes visible).
type Mimic struct{}

var _ Strategy = Mimic{}

// Name implements Strategy.
func (Mimic) Name() string { return "mimic" }

// Propose implements Strategy.
func (Mimic) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	for _, v := range out {
		ctx.replay(v, 0)
	}
	return out
}

// Crash models fail-stop workers inside the Byzantine envelope: from
// round After onward the workers "stall" and their proposals are zero
// vectors (the parameter server of the paper's synchronous model still
// receives a value; a stalled process is one of the motivating failure
// modes of Section 1).
type Crash struct {
	// After is the first round at which the workers crash.
	After int
}

var _ Strategy = Crash{}

// Name implements Strategy.
func (c Crash) Name() string { return fmt.Sprintf("crash(after=%d)", c.After) }

// Propose implements Strategy.
func (c Crash) Propose(ctx *Context) [][]float64 {
	out := ctx.lend()
	for i, v := range out {
		if ctx.Round < c.After {
			ctx.replay(v, i)
		} else {
			vec.Zero(v)
		}
	}
	return out
}
