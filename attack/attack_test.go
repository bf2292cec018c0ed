package attack

import (
	"errors"
	"math"
	"testing"

	"krum/internal/vec"
)

func testCtx(f int, seed uint64) *Context {
	rng := vec.NewRNG(seed)
	correct := make([][]float64, 5)
	for i := range correct {
		correct[i] = rng.NewNormal(4, 1, 0.1)
	}
	return &Context{
		Round:   0,
		Params:  make([]float64, 4),
		Correct: correct,
		F:       f,
		RNG:     rng.Split(),
	}
}

// checkShape asserts a strategy returns exactly f vectors of the right
// dimension.
func checkShape(t *testing.T, s Strategy, ctx *Context) [][]float64 {
	t.Helper()
	out := s.Propose(ctx)
	if len(out) != ctx.F {
		t.Fatalf("%s returned %d proposals, want %d", s.Name(), len(out), ctx.F)
	}
	for i, v := range out {
		if len(v) != len(ctx.Correct[0]) {
			t.Fatalf("%s proposal %d has dim %d", s.Name(), i, len(v))
		}
	}
	return out
}

func TestAllStrategiesShapeAndNonMutation(t *testing.T) {
	takeover, err := NewLinearTakeover([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{
		None{},
		Gaussian{Sigma: 200},
		Omniscient{},
		SignFlip{},
		takeover,
		MedoidCollusion{},
		Mimic{},
		Crash{After: 5},
		HiddenCoordinate{Coordinate: 2},
		LittleIsEnough{},
	}
	for _, s := range strategies {
		t.Run(s.Name(), func(t *testing.T) {
			ctx := testCtx(3, 42)
			before := vec.CloneAll(ctx.Correct)
			checkShape(t, s, ctx)
			for i := range before {
				if !vec.ApproxEqual(ctx.Correct[i], before[i], 0) {
					t.Errorf("%s mutated correct proposal %d", s.Name(), i)
				}
			}
		})
	}
}

func TestNoneReplaysCorrect(t *testing.T) {
	ctx := testCtx(2, 1)
	out := (None{}).Propose(ctx)
	if !vec.ApproxEqual(out[0], ctx.Correct[0], 0) || !vec.ApproxEqual(out[1], ctx.Correct[1], 0) {
		t.Error("None should replay correct proposals")
	}
	// Must be copies, not aliases.
	out[0][0] = 1e9
	if ctx.Correct[0][0] == 1e9 {
		t.Error("None aliases correct proposals")
	}
}

func TestGaussianMagnitude(t *testing.T) {
	ctx := testCtx(2, 2)
	out := (Gaussian{Sigma: 200}).Propose(ctx)
	// E‖v‖ ≈ 200·√4 = 400; anything above 100 proves it is garbage
	// relative to unit-scale gradients.
	for _, v := range out {
		if vec.Norm(v) < 100 {
			t.Errorf("gaussian attack vector suspiciously small: %v", vec.Norm(v))
		}
	}
}

func TestOmniscientOpposesGradient(t *testing.T) {
	ctx := testCtx(2, 3)
	mean := make([]float64, 4)
	vec.Mean(mean, ctx.Correct)
	out := (Omniscient{Scale: 10}).Propose(ctx)
	for _, v := range out {
		if dot := vec.Dot(v, mean); dot >= 0 {
			t.Errorf("omniscient proposal not opposing gradient: dot = %v", dot)
		}
		want := vec.Clone(mean)
		vec.Scale(-10, want)
		if !vec.ApproxEqual(v, want, 1e-12) {
			t.Errorf("omniscient proposal = %v, want %v", v, want)
		}
	}
	// Default scale.
	if (Omniscient{}).effScale() != 20 {
		t.Error("default scale != 20")
	}
}

func TestSignFlipExactNegation(t *testing.T) {
	ctx := testCtx(1, 4)
	mean := make([]float64, 4)
	vec.Mean(mean, ctx.Correct)
	out := (SignFlip{}).Propose(ctx)
	want := vec.Clone(mean)
	vec.Scale(-1, want)
	if !vec.ApproxEqual(out[0], want, 1e-12) {
		t.Errorf("signflip = %v, want %v", out[0], want)
	}
}

func TestLinearTakeoverValidation(t *testing.T) {
	if _, err := NewLinearTakeover(nil, []float64{1}); !errors.Is(err, ErrConfig) {
		t.Error("empty target accepted")
	}
	if _, err := NewLinearTakeover([]float64{1}, nil); !errors.Is(err, ErrConfig) {
		t.Error("empty weights accepted")
	}
	if _, err := NewLinearTakeover([]float64{1}, []float64{1, 0}); !errors.Is(err, ErrConfig) {
		t.Error("zero attacker weight accepted")
	}
}

// The Lemma 3.1 witness end to end: apply the linear rule to
// correct ∪ byzantine proposals and verify the output is exactly U.
func TestLinearTakeoverForcesTarget(t *testing.T) {
	for _, f := range []int{1, 2, 3} {
		ctx := testCtx(f, uint64(10+f))
		n := len(ctx.Correct) + f
		rng := vec.NewRNG(uint64(20 + f))
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.05 + rng.Float64()
		}
		target := rng.NewNormal(4, -3, 1)
		a, err := NewLinearTakeover(target, weights)
		if err != nil {
			t.Fatal(err)
		}
		byz := a.Propose(ctx)
		// Assemble the full proposal list (byzantine in last slots).
		all := append(vec.CloneAll(ctx.Correct), byz...)
		agg := make([]float64, 4)
		vec.WeightedSum(agg, weights, all)
		if !vec.ApproxEqual(agg, target, 1e-9) {
			t.Errorf("f=%d: linear output %v, want forced target %v", f, agg, target)
		}
	}
}

func TestMedoidCollusionGeometry(t *testing.T) {
	ctx := testCtx(3, 5)
	out := (MedoidCollusion{Offset: 1e4}).Propose(ctx)
	// First f−1 proposals are remote decoys.
	for i := 0; i < 2; i++ {
		if vec.Norm(out[i]) < 1e3 {
			t.Errorf("decoy %d not remote: %v", i, vec.Norm(out[i]))
		}
	}
	// The last proposal is the barycenter fixpoint: b·(n−1) = Σ others.
	n := len(ctx.Correct) + ctx.F
	sum := make([]float64, 4)
	for _, v := range ctx.Correct {
		vec.Axpy(1, v, sum)
	}
	for i := 0; i < 2; i++ {
		vec.Axpy(1, out[i], sum)
	}
	want := vec.Clone(sum)
	vec.Scale(1/float64(n-1), want)
	if !vec.ApproxEqual(out[2], want, 1e-9) {
		t.Errorf("barycenter proposal = %v, want %v", out[2], want)
	}
	if (MedoidCollusion{}).effOffset() != 1e4 {
		t.Error("default offset")
	}
}

func TestMimicCopiesFirstCorrect(t *testing.T) {
	ctx := testCtx(2, 6)
	out := (Mimic{}).Propose(ctx)
	for _, v := range out {
		if !vec.ApproxEqual(v, ctx.Correct[0], 0) {
			t.Error("mimic does not copy the first correct proposal")
		}
	}
}

// TestProposeLendsContextVectors pins the ownership rule of
// Strategy.Propose for every built-in strategy: on a kept Context the
// second call hands out the vectors of the first (so the caller must be
// done with them), what they held before never shows in the result, and
// a fresh Context still yields fresh vectors that alias nothing.
func TestProposeLendsContextVectors(t *testing.T) {
	takeover, err := NewLinearTakeover([]float64{1, 2, 3, 4}, []float64{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{
		None{}, Gaussian{Sigma: 200}, Omniscient{}, SignFlip{}, takeover, MedoidCollusion{},
		Mimic{}, Crash{After: 5}, Crash{After: 0}, HiddenCoordinate{Coordinate: 2}, LittleIsEnough{},
	} {
		t.Run(s.Name(), func(t *testing.T) {
			fresh := vec.CloneAll(s.Propose(testCtx(3, 42)))

			kept := testCtx(3, 42)
			kept.arena = make([][]float64, 3)
			for i := range kept.arena {
				kept.arena[i] = []float64{math.NaN(), math.Inf(1), -7, math.NaN()}
			}
			lent := kept.arena[0]
			out := s.Propose(kept)
			for i := range fresh {
				for j := range fresh[i] {
					if math.Float64bits(out[i][j]) != math.Float64bits(fresh[i][j]) {
						t.Fatalf("proposal %d[%d] = %v on a kept context, %v on a fresh one", i, j, out[i][j], fresh[i][j])
					}
				}
			}
			if &out[0][0] != &lent[0] {
				t.Error("proposal 0 is not the context's vector")
			}
			if again := s.Propose(kept); &again[0][0] != &lent[0] {
				t.Error("second Propose on the same context did not reuse its vectors")
			}
			for _, v := range out {
				for _, c := range kept.Correct {
					if &v[0] == &c[0] {
						t.Error("proposal aliases a correct worker's vector")
					}
				}
			}

			// A different shape gets vectors of its own.
			kept.F = 2
			if out := s.Propose(kept); len(out) != 2 || &out[0][0] == &lent[0] {
				t.Errorf("after F changed: %d proposals, reused = %v", len(out), len(out) > 0 && &out[0][0] == &lent[0])
			}
		})
	}
}

func TestCrashTiming(t *testing.T) {
	ctx := testCtx(2, 7)
	ctx.Round = 3
	c := Crash{After: 5}
	out := c.Propose(ctx)
	// Before the crash round: behaves correctly.
	if !vec.ApproxEqual(out[0], ctx.Correct[0], 0) {
		t.Error("pre-crash proposal should replay correct worker")
	}
	ctx.Round = 5
	out = c.Propose(ctx)
	for _, v := range out {
		if vec.Norm(v) != 0 {
			t.Error("post-crash proposal should be zero")
		}
	}
}

func TestEmptyCorrectFallbacks(t *testing.T) {
	// Degenerate context with no correct workers must not panic.
	ctx := &Context{Params: make([]float64, 3), F: 2, RNG: vec.NewRNG(1)}
	for _, s := range []Strategy{None{}, Mimic{}, Crash{}, Omniscient{}, SignFlip{}} {
		out := s.Propose(ctx)
		if len(out) != 2 || len(out[0]) != 3 {
			t.Errorf("%s wrong shape on empty correct set", s.Name())
		}
		for _, v := range out {
			if !vec.AllFinite(v) {
				t.Errorf("%s produced non-finite proposal", s.Name())
			}
		}
	}
}

func TestStrategyNamesAreStable(t *testing.T) {
	if (Gaussian{Sigma: 200}).Name() != "gaussian(sigma=200)" {
		t.Errorf("gaussian name: %s", Gaussian{Sigma: 200}.Name())
	}
	if got := (Crash{After: 3}).Name(); got != "crash(after=3)" {
		t.Errorf("crash name: %s", got)
	}
	if math.IsNaN((Omniscient{}).effScale()) {
		t.Error("omniscient default scale")
	}
}
