package distsgd

import (
	"math"
	"testing"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/internal/sim"
	"krum/internal/vec"
)

// Failure-injection tests: the engine must survive (and the rules must
// contain) fail-stop workers, mid-run crashes and malformed proposals.

func TestTrainingSurvivesMidRunCrash(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds = 80
	cfg.EvalEvery = 20
	// Two workers crash (stall to zero vectors) at round 30.
	cfg.Attack = attack.Crash{After: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged under crash fault")
	}
	if res.FinalTestAccuracy < 0.9 {
		t.Errorf("accuracy %v with 2 crashed workers", res.FinalTestAccuracy)
	}
}

func TestCrashedWorkersZeroVectorNeverWinsWithKrum(t *testing.T) {
	// After the crash, the Byzantine slots propose exactly zero. With a
	// far-from-converged model the honest gradients are large, so Krum
	// must not select the zero vectors — selection tracking proves it.
	cfg := quickConfig(t)
	cfg.Rounds = 30
	cfg.EvalEvery = 0
	cfg.TrackSelection = true
	cfg.Attack = attack.Crash{After: 0} // crashed from the start
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.ByzantineSelectionRate(); rate > 0.2 {
		t.Errorf("krum selected crashed workers at rate %v", rate)
	}
}

// nanAttack proposes NaN vectors — the nastiest malformed input.
type nanAttack struct{}

func (nanAttack) Name() string { return "nan" }

func (nanAttack) Propose(ctx *attack.Context) [][]float64 {
	out := make([][]float64, ctx.F)
	for i := range out {
		v := make([]float64, len(ctx.Params))
		vec.Fill(v, math.NaN())
		out[i] = v
	}
	return out
}

func TestFiniteGuardContainsNaNAttackEndToEnd(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds = 60
	cfg.EvalEvery = 20
	cfg.Attack = nanAttack{}
	cfg.Rule = krum.FiniteGuard{Inner: krum.NewKrum(2)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("guarded run diverged under NaN attack")
	}
	if !vec.AllFinite(res.FinalParams) {
		t.Fatal("NaN leaked into parameters")
	}
	if res.FinalTestAccuracy < 0.9 {
		t.Errorf("accuracy %v under NaN attack with FiniteGuard", res.FinalTestAccuracy)
	}
}

func TestUnguardedAverageIsPoisonedByNaN(t *testing.T) {
	// Control: without the guard, averaging NaN proposals corrupts the
	// parameters immediately and the engine reports divergence.
	cfg := quickConfig(t)
	cfg.Rounds = 10
	cfg.EvalEvery = 0
	cfg.Attack = nanAttack{}
	cfg.Rule = krum.Average{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged {
		t.Error("NaN attack against plain averaging should be detected as divergence")
	}
	if res.DivergedRound != 0 {
		t.Errorf("divergence detected at round %d, want 0", res.DivergedRound)
	}
}

func TestLabelFlipPoisoningDegradesAverageNotKrum(t *testing.T) {
	// Data poisoning at the worker level: Byzantine workers compute
	// honest gradients on flipped labels. This is the "biased data
	// distribution" failure of the paper's introduction.
	cfg := quickConfig(t)
	cfg.Rounds = 100
	cfg.EvalEvery = 25
	poisoned, err := sim.NewPool(cfg.Model, labelFlip{cfg.Dataset}, cfg.F, cfg.BatchSize, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Attack = labelFlipAttack{poisoned}

	krumCfg := cfg
	krumCfg.Rule = krum.NewKrum(2)
	krumRes, err := Run(krumCfg)
	if err != nil {
		t.Fatal(err)
	}
	if krumRes.FinalTestAccuracy < 0.85 {
		t.Errorf("krum accuracy %v under label-flip poisoning", krumRes.FinalTestAccuracy)
	}
}

// labelFlipAttack is the poisoned workers: a pool of model replicas
// computing their round's gradients at the broadcast parameters, on
// label-flipped samples.
type labelFlipAttack struct{ pool *sim.Pool }

func (labelFlipAttack) Name() string { return "labelflip" }

func (a labelFlipAttack) Propose(ctx *attack.Context) [][]float64 {
	grads, _, err := a.pool.Gradients(ctx.Params)
	if err != nil {
		panic(err)
	}
	return grads
}

// labelFlip wraps a classification dataset and flips every label — the
// data-poisoning behaviour a "biased" worker exhibits in the paper's
// motivation (Section 1: "biases in the way the data samples are
// distributed among the processes"). For one-hot targets the label
// rotates by one class; for binary targets it complements.
type labelFlip struct{ data.Dataset }

func (l labelFlip) Sample(rng *vec.RNG, x, y []float64) {
	l.Dataset.Sample(rng, x, y)
	if len(y) == 1 {
		y[0] = 1 - y[0]
		return
	}
	hot := vec.Argmax(y)
	y[hot] = 0
	y[(hot+1)%len(y)] = 1
}

func TestLabelFlipBinary(t *testing.T) {
	s, err := data.NewSyntheticSpambase(0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	flipped := labelFlip{s}
	if flipped.Dim() != s.Dim() || flipped.OutDim() != 1 {
		t.Error("labelFlip changed shape")
	}
	rng1, rng2 := vec.NewRNG(9), vec.NewRNG(9)
	x1, x2 := make([]float64, s.Dim()), make([]float64, s.Dim())
	y1, y2 := make([]float64, 1), make([]float64, 1)
	for i := 0; i < 100; i++ {
		s.Sample(rng1, x1, y1)
		flipped.Sample(rng2, x2, y2)
		if !vec.ApproxEqual(x1, x2, 0) {
			t.Fatal("labelFlip changed features")
		}
		if y2[0] != 1-y1[0] {
			t.Fatalf("label not flipped: %v vs %v", y1[0], y2[0])
		}
	}
}

func TestLabelFlipOneHot(t *testing.T) {
	g, err := data.NewGaussianMixture(3, 2, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := labelFlip{g}
	rng1, rng2 := vec.NewRNG(4), vec.NewRNG(4)
	x := make([]float64, 2)
	y1, y2 := make([]float64, 3), make([]float64, 3)
	for i := 0; i < 100; i++ {
		g.Sample(rng1, x, y1)
		flipped.Sample(rng2, x, y2)
		want := (vec.Argmax(y1) + 1) % 3
		if vec.Argmax(y2) != want || math.Abs(vec.Sum(y2)-1) > 1e-12 {
			t.Fatalf("one-hot flip wrong: %v -> %v", y1, y2)
		}
	}
}

func TestKrumUnderLittleIsEnoughDegradesGracefully(t *testing.T) {
	// The stealth attack from the post-Krum literature: proposals stay
	// inside the honest cloud, so Krum may select them — but their bias
	// is bounded by ~1σ of the honest spread, so training degrades
	// gracefully rather than collapsing.
	cfg := quickConfig(t)
	cfg.Rounds = 100
	cfg.EvalEvery = 25
	cfg.Attack = attack.LittleIsEnough{Z: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("diverged under little-is-enough")
	}
	if res.FinalTestAccuracy < 0.5 {
		t.Errorf("accuracy %v — bounded-bias attack should not collapse training", res.FinalTestAccuracy)
	}
}
