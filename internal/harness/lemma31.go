package harness

import (
	"fmt"
	"io"
	"math"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/distsgd"
	"krum/internal/metrics"
	"krum/internal/vec"
	"krum/model"
)

// Lemma31Result summarizes experiment E1: a single Byzantine worker
// versus a linear rule (averaging) and versus Krum.
type Lemma31Result struct {
	// ForcedUpdateError is ‖F_lin − U‖/‖U‖ on the first round — how
	// exactly the attacker controls the linear rule's output (should
	// be ≈ 0).
	ForcedUpdateError float64
	// AverageDiverged reports whether the averaging run left the
	// finite range.
	AverageDiverged bool
	// AverageFinalAccuracy is the last measured accuracy of the
	// averaging run (chance level when destroyed).
	AverageFinalAccuracy float64
	// KrumFinalAccuracy is Krum's final accuracy under the identical
	// attack.
	KrumFinalAccuracy float64
	// KrumDiverged should always be false.
	KrumDiverged bool
}

// RunLemma31 executes E1 and renders its table to w.
func RunLemma31(w io.Writer, scale Scale, seed uint64) (*Lemma31Result, error) {
	const n, f = 11, 1
	rounds := pick(scale, 120, 400)

	ds, err := data.NewGaussianMixture(3, 8, 4, 0.5, seed)
	if err != nil {
		return nil, err
	}
	m, err := model.NewSoftmaxClassifier(8, 3, seed+1)
	if err != nil {
		return nil, err
	}

	// The attacker forces the average to the constant vector U with
	// every coordinate 1e6 — maximally destructive.
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1.0 / float64(n)
	}
	target := make([]float64, m.Dim())
	vec.Fill(target, 1e6)
	takeover, err := attack.NewLinearTakeover(target, weights)
	if err != nil {
		return nil, err
	}

	base := distsgd.Config{
		Model:     m,
		Dataset:   ds,
		N:         n,
		F:         f,
		BatchSize: 16,
		Schedule:  krum.ScheduleInverseTStretched(0.2, 0.75, 100),
		Rounds:    rounds,
		Attack:    takeover,
		Seed:      seed,
		EvalEvery: rounds / 4,
	}

	// The same takeover against the linear rule, then against Krum.
	var runs []*distsgd.Result
	for _, rule := range []krum.Rule{krum.Average{}, krum.NewKrum(f)} {
		cfg := base
		cfg.Rule = rule
		run, err := distsgd.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", rule.Name(), err)
		}
		runs = append(runs, run)
	}
	avgRun, krumRun := runs[0], runs[1]
	// The forced output has norm ‖U‖ = 1e6·√d; measure relative error
	// on round 0.
	forcedNorm := vec.Norm(target)
	res := &Lemma31Result{
		ForcedUpdateError:    math.Abs(avgRun.History[0].UpdateNorm-forcedNorm) / forcedNorm,
		AverageDiverged:      avgRun.Diverged,
		AverageFinalAccuracy: avgRun.FinalTestAccuracy,
		KrumFinalAccuracy:    krumRun.FinalTestAccuracy,
		KrumDiverged:         krumRun.Diverged,
	}

	section(w, "E1 / Lemma 3.1 — one Byzantine worker controls any linear rule")
	fmt.Fprintf(w, "n = %d workers, f = %d Byzantine, attack = forced U with ‖U‖ = %.3g\n\n", n, f, forcedNorm)
	tbl := metrics.NewTable("rule", "round-0 |F−U|/|U|", "diverged", "final accuracy")
	tbl.AddRowf("average", res.ForcedUpdateError, res.AverageDiverged, res.AverageFinalAccuracy)
	tbl.AddRowf("krum", "-", res.KrumDiverged, res.KrumFinalAccuracy)
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	return res, nil
}
