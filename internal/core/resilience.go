package core

import (
	"fmt"
	"math"

	"krum/internal/stats"
	"krum/internal/vec"
)

// Eta returns the constant η(n, f) of Proposition 4.2 controlling the
// resilience angle sin α = η(n,f)·√d·σ/‖g‖. The closed form comes from
// the full version of the paper (arXiv:1703.02757, Proposition 1):
//
//	η(n, f) = √( 2·( n − f + (f·(n−f−2) + f²·(n−f−1)) / (n−2f−2) ) )
//
// which matches the brief announcement's asymptotics: O(√n) for
// f = O(1) and O(n) for f = Θ(n). It returns an error unless 2f+2 < n.
func Eta(n, f int) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("f = %d: %w", f, ErrBadParameter)
	}
	if 2*f+2 >= n {
		return 0, fmt.Errorf("n = %d does not satisfy n > 2f+2 = %d: %w", n, 2*f+2, ErrTooFewWorkers)
	}
	nf := float64(n)
	ff := float64(f)
	inner := nf - ff + (ff*(nf-ff-2)+ff*ff*(nf-ff-1))/(nf-2*ff-2)
	return math.Sqrt(2 * inner), nil
}

// Adversary produces the f Byzantine proposals for one resilience trial.
// It receives the true gradient g and the correct workers' proposals
// (the Section 2 omniscient threat model: Byzantine workers see
// everything and may collude) and returns exactly f vectors of the same
// dimension. Implementations must not mutate correct.
type Adversary func(g []float64, correct [][]float64) [][]float64

// ResilienceConfig parameterizes one Monte-Carlo verification of
// Definition 3.2 for a choice function.
type ResilienceConfig struct {
	// Rule is the choice function F under test.
	Rule Rule
	// N and F are the worker counts (total, Byzantine).
	N, F int
	// Gradient is the true gradient g (EG = g).
	Gradient []float64
	// Sigma is the per-coordinate standard deviation of the correct
	// estimator G = g + N(0, σ²·I), so that E‖G−g‖² = d·σ² exactly as
	// in Proposition 4.2.
	Sigma float64
	// Adversary generates the Byzantine proposals; nil means "no
	// attack" (Byzantine slots are filled with correct proposals).
	Adversary Adversary
	// Trials is the number of Monte-Carlo rounds; 0 means 2000.
	Trials int
	// Seed makes the verification deterministic.
	Seed uint64
}

// ResilienceReport is the outcome of a Monte-Carlo check of
// Definition 3.2.
type ResilienceReport struct {
	// DotProduct is the estimated ⟨E F, g⟩.
	DotProduct float64
	// Bound is (1 − sin α)·‖g‖², the right-hand side of condition (i),
	// with sin α computed from η(n, f), √d·σ and ‖g‖ per
	// Proposition 4.2 (clamped to 1 when the precondition
	// η√d·σ < ‖g‖ fails).
	Bound float64
	// SinAlpha is η(n,f)·√d·σ/‖g‖ (possibly ≥ 1 when the precondition
	// fails; then the proposition promises nothing).
	SinAlpha float64
	// Eta is η(n, f).
	Eta float64
	// ConditionI reports ⟨E F, g⟩ ≥ (1 − sin α)·‖g‖² > 0.
	ConditionI bool
	// MomentF[r-2] estimates E‖F‖^r for r = 2, 3, 4.
	MomentF [3]float64
	// MomentG[r-2] estimates E‖G‖^r for r = 2, 3, 4 from the correct
	// proposals.
	MomentG [3]float64
	// MomentRatio[r-2] is MomentF[r]/MomentG[r]; condition (ii) asks
	// for the F-moments to be bounded by a linear combination of
	// products of G-moments — a bounded ratio is the practical
	// Monte-Carlo proxy reported here.
	MomentRatio [3]float64
	// ConditionII reports MomentRatio ≤ the verifier's constant bound
	// for all r (see VerifyResilience).
	ConditionII bool
	// Trials is the number of rounds actually run.
	Trials int
}

// momentRatioBound is the constant against which the empirical moment
// ratios are compared. Condition (ii) only requires SOME linear
// combination with constant coefficients; a generous fixed constant
// keeps the check meaningful (it fails spectacularly for averaging under
// a large-norm attack where the ratio grows with the attack magnitude)
// without trying to recover the proof's exact combinatorial constants.
const momentRatioBound = 100.0

// VerifyResilience estimates the two conditions of Definition 3.2 for
// cfg.Rule by Monte-Carlo simulation and reports the measurements. A
// report with both conditions true is evidence (not proof) of
// (α, f)-Byzantine resilience at the configured operating point; the
// benches sweep σ to exhibit where the precondition of Proposition 4.2
// breaks.
func VerifyResilience(cfg ResilienceConfig) (*ResilienceReport, error) {
	if cfg.Rule == nil {
		return nil, fmt.Errorf("nil rule: %w", ErrBadParameter)
	}
	if cfg.F < 0 || cfg.F > cfg.N {
		return nil, fmt.Errorf("f = %d with n = %d: %w", cfg.F, cfg.N, ErrBadParameter)
	}
	if len(cfg.Gradient) == 0 {
		return nil, fmt.Errorf("empty gradient: %w", ErrBadParameter)
	}
	g := cfg.Gradient
	d := len(g)
	normG2 := vec.Norm2(g)
	if normG2 == 0 {
		return nil, fmt.Errorf("zero gradient: %w", ErrBadParameter)
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 2000
	}

	eta, err := Eta(cfg.N, cfg.F)
	if err != nil {
		return nil, err
	}
	sinAlpha := eta * math.Sqrt(float64(d)) * cfg.Sigma / math.Sqrt(normG2)

	rng := vec.NewRNG(cfg.Seed)
	meanF := stats.NewVecMean(d)
	var momF, momG [3]stats.Moments

	nCorrect := cfg.N - cfg.F
	correct := make([][]float64, nCorrect)
	for i := range correct {
		correct[i] = make([]float64, d)
	}
	proposals := make([][]float64, cfg.N)
	out := make([]float64, d)

	for t := 0; t < trials; t++ {
		for _, c := range correct {
			// FillNormal(c, 0, 1) holds 0 + 1·z, which is z: no
			// Box–Muller variate is −0.
			rng.FillNormal(c, 0, 1)
			for j, z := range c {
				c[j] = g[j] + cfg.Sigma*z
			}
			nrm := vec.Norm(c)
			for r := 2; r <= 4; r++ {
				momG[r-2].Add(math.Pow(nrm, float64(r)))
			}
		}
		var byz [][]float64
		if cfg.Adversary != nil && cfg.F > 0 {
			byz = cfg.Adversary(g, correct)
			if len(byz) != cfg.F {
				return nil, fmt.Errorf("adversary returned %d vectors, want %d: %w", len(byz), cfg.F, ErrBadParameter)
			}
		}
		// Byzantine workers occupy the LAST f slots; Definition 3.2
		// quantifies over all index placements, and every rule in this
		// package is permutation-invariant up to tie-breaking (a
		// property the unit tests check), so one placement suffices.
		for i := 0; i < nCorrect; i++ {
			proposals[i] = correct[i]
		}
		for i := 0; i < cfg.F; i++ {
			if byz != nil {
				proposals[nCorrect+i] = byz[i]
			} else {
				proposals[nCorrect+i] = correct[i%nCorrect]
			}
		}
		if err := cfg.Rule.Aggregate(out, proposals); err != nil {
			return nil, fmt.Errorf("aggregating trial %d: %w", t, err)
		}
		meanF.Add(out)
		nrm := vec.Norm(out)
		for r := 2; r <= 4; r++ {
			momF[r-2].Add(math.Pow(nrm, float64(r)))
		}
	}

	rep := &ResilienceReport{
		SinAlpha: sinAlpha,
		Eta:      eta,
		Trials:   trials,
	}
	ef := meanF.Mean(nil)
	rep.DotProduct = vec.Dot(ef, g)
	effSin := math.Min(sinAlpha, 1)
	rep.Bound = (1 - effSin) * normG2
	rep.ConditionI = rep.DotProduct >= rep.Bound && rep.Bound > 0

	rep.ConditionII = true
	for r := 0; r < 3; r++ {
		// Moments accumulators already hold ‖·‖^r samples, so the first
		// raw moment of the accumulator IS E‖·‖^r.
		rep.MomentF[r] = momF[r].Raw(1)
		rep.MomentG[r] = momG[r].Raw(1)
		if rep.MomentG[r] > 0 {
			rep.MomentRatio[r] = rep.MomentF[r] / rep.MomentG[r]
		} else {
			rep.MomentRatio[r] = math.Inf(1)
		}
		if rep.MomentRatio[r] > momentRatioBound {
			rep.ConditionII = false
		}
	}
	return rep, nil
}
