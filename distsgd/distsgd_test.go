package distsgd

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"krum"
	"krum/attack"
	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// quickConfig returns a small but meaningful training setup: softmax
// classifier on a well separated 3-class mixture.
func quickConfig(t *testing.T) Config {
	t.Helper()
	ds, err := data.NewGaussianMixture(3, 6, 4, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmaxClassifier(6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:     m,
		Dataset:   ds,
		Rule:      krum.NewKrum(2),
		N:         11,
		F:         2,
		BatchSize: 16,
		Schedule:  krum.ScheduleInverseTStretched(0.5, 0.75, 50),
		Rounds:    60,
		Seed:      7,
		EvalEvery: 20,
		EvalBatch: 400,
	}
}

// TestRunIncrementalBitIdentical is the cross-round cache's contract
// at the training level: the same config with and without Incremental
// produces bit-identical histories and final parameters — the cache
// only changes how much of the distance matrix each round recomputes.
// The crash attack makes the Byzantine proposals constant from round 5
// on, so the cached run must actually take the incremental path (row
// updates observed, fewer full builds than rounds) rather than
// trivially rebuilding every round.
func TestRunIncrementalBitIdentical(t *testing.T) {
	base := quickConfig(t)
	base.Attack = attack.Crash{After: 5}
	base.Rounds = 20
	base.EvalEvery = 5

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	inc := base
	inc.Incremental = true
	builds := vec.MatrixBuildCount()
	rows := vec.MatrixRowUpdateCount()
	cached, err := Run(inc)
	if err != nil {
		t.Fatal(err)
	}
	gotBuilds := vec.MatrixBuildCount() - builds
	gotRows := vec.MatrixRowUpdateCount() - rows
	if gotRows == 0 {
		t.Error("incremental run never recomputed a row: cache path not exercised")
	}
	if gotBuilds >= uint64(base.Rounds) {
		t.Errorf("incremental run built %d matrices over %d rounds: cache never reused", gotBuilds, base.Rounds)
	}

	if !reflect.DeepEqual(plain.FinalParams, cached.FinalParams) {
		t.Error("FinalParams differ between incremental and full recompute")
	}
	if len(plain.History) != len(cached.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(plain.History), len(cached.History))
	}
	for r := range plain.History {
		if plain.History[r] != cached.History[r] {
			t.Errorf("round %d stats differ: %+v vs %+v", r, plain.History[r], cached.History[r])
			break
		}
	}
}

func TestRunValidation(t *testing.T) {
	base := quickConfig(t)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil model", mutate: func(c *Config) { c.Model = nil }},
		{name: "nil dataset", mutate: func(c *Config) { c.Dataset = nil }},
		{name: "nil rule", mutate: func(c *Config) { c.Rule = nil }},
		{name: "nil schedule", mutate: func(c *Config) { c.Schedule = nil }},
		{name: "f >= n", mutate: func(c *Config) { c.F = c.N }},
		{name: "negative f", mutate: func(c *Config) { c.F = -1 }},
		{name: "zero rounds", mutate: func(c *Config) { c.Rounds = 0 }},
		{name: "zero batch", mutate: func(c *Config) { c.BatchSize = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}

func TestRunKrumNoAttackLearns(t *testing.T) {
	cfg := quickConfig(t)
	cfg.F = 0
	cfg.Rule = krum.NewKrum(0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatal("benign run diverged")
	}
	if len(res.History) != cfg.Rounds {
		t.Fatalf("history has %d rounds", len(res.History))
	}
	if res.FinalTestAccuracy < 0.9 {
		t.Errorf("final accuracy %v, want ≥ 0.9 on separable mixture", res.FinalTestAccuracy)
	}
	if len(res.FinalParams) != cfg.Model.Dim() {
		t.Error("FinalParams dimension wrong")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds = 20
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(r1.FinalParams, r2.FinalParams, 0) {
		t.Error("same seed produced different final parameters")
	}
	for i := range r1.History {
		if r1.History[i].TrainLoss != r2.History[i].TrainLoss {
			t.Fatalf("round %d train loss differs", i)
		}
	}
}

// The paper's headline contrast, as an integration test: under the
// omniscient attack with f/n ≈ 27%, averaging is destroyed while Krum
// keeps learning.
func TestKrumSurvivesOmniscientAverageDoesNot(t *testing.T) {
	base := quickConfig(t)
	base.Attack = attack.Omniscient{Scale: 30}
	base.Rounds = 120
	base.EvalEvery = 40

	krumCfg := base
	krumCfg.Rule = krum.NewKrum(2)
	krumRes, err := Run(krumCfg)
	if err != nil {
		t.Fatal(err)
	}
	if krumRes.Diverged {
		t.Fatal("krum diverged under omniscient attack")
	}
	if krumRes.FinalTestAccuracy < 0.85 {
		t.Errorf("krum accuracy %v under attack, want ≥ 0.85", krumRes.FinalTestAccuracy)
	}

	avgCfg := base
	avgCfg.Rule = krum.Average{}
	avgRes, err := Run(avgCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Averaging must either diverge outright or end with near-chance
	// accuracy.
	if !avgRes.Diverged && avgRes.FinalTestAccuracy > 0.6 {
		t.Errorf("averaging survived the omniscient attack: acc = %v, diverged = %v",
			avgRes.FinalTestAccuracy, avgRes.Diverged)
	}
}

func TestSelectionTracking(t *testing.T) {
	cfg := quickConfig(t)
	cfg.TrackSelection = true
	cfg.Attack = attack.Gaussian{Sigma: 200}
	cfg.Rounds = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionTrackedRounds != 40 {
		t.Fatalf("tracked %d rounds", res.SelectionTrackedRounds)
	}
	// Krum must essentially never select a σ=200 Gaussian garbage
	// proposal.
	if rate := res.ByzantineSelectionRate(); rate > 0.05 {
		t.Errorf("krum selected Byzantine proposals at rate %v", rate)
	}
}

func TestSelectionRateNaNWhenUntracked(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.ByzantineSelectionRate()) {
		t.Error("untracked selection rate should be NaN")
	}
}

func TestOnRoundHookAndAccuracySeries(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds = 30
	cfg.EvalEvery = 10
	var hooked int
	cfg.OnRound = func(s RoundStats) { hooked++ }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hooked != 30 {
		t.Errorf("OnRound fired %d times", hooked)
	}
	rounds, accs := res.AccuracySeries()
	if len(rounds) != 3 || len(accs) != 3 {
		t.Fatalf("accuracy series %v %v", rounds, accs)
	}
	if rounds[0] != 9 || rounds[1] != 19 || rounds[2] != 29 {
		t.Errorf("eval rounds %v", rounds)
	}
}

func TestRunRejectsMismatchedSource(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Source = fakeSource{n: 3, dim: cfg.Model.Dim()}
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("mismatched source accepted: %v", err)
	}
}

func TestRunCustomSource(t *testing.T) {
	cfg := quickConfig(t)
	cfg.N, cfg.F = 5, 1
	cfg.Rule = krum.NewKrum(1)
	cfg.EvalEvery = 0
	cfg.Rounds = 10
	cfg.Source = fakeSource{n: 4, dim: cfg.Model.Dim()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Errorf("history %d", len(res.History))
	}
}

// fakeSource returns constant unit gradients.
type fakeSource struct {
	n, dim int
}

func (f fakeSource) Gradients(params []float64) ([][]float64, float64, error) {
	out := make([][]float64, f.n)
	for i := range out {
		g := make([]float64, f.dim)
		vec.Fill(g, 1)
		out[i] = g
	}
	return out, 1, nil
}

func (f fakeSource) N() int   { return f.n }
func (f fakeSource) Dim() int { return f.dim }

// Lemma 3.1 at training level: a single Byzantine worker forces the
// average to a constant huge vector; the run diverges (or is driven to
// garbage), whereas Krum with the same attack stays finite.
func TestLemma31AtTrainingLevel(t *testing.T) {
	cfg := quickConfig(t)
	cfg.N, cfg.F = 11, 1
	cfg.Rounds = 80
	cfg.EvalEvery = 0
	// The takeover solves against uniform averaging weights 1/n.
	weights := make([]float64, cfg.N)
	for i := range weights {
		weights[i] = 1.0 / float64(cfg.N)
	}
	target := make([]float64, cfg.Model.Dim())
	vec.Fill(target, 1e6)
	takeover, err := attack.NewLinearTakeover(target, weights)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Attack = takeover

	avgCfg := cfg
	avgCfg.Rule = krum.Average{}
	avgRes, err := Run(avgCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !avgRes.Diverged {
		// The forced updates of 1e6 should blow up the parameters
		// quickly; if not diverged, the update norms must at least be
		// the forced magnitude.
		if avgRes.History[0].UpdateNorm < 1e5 {
			t.Errorf("takeover did not control the average: update norm %v", avgRes.History[0].UpdateNorm)
		}
	}

	krumCfg := cfg
	krumCfg.Rule = krum.NewKrum(1)
	krumRes, err := Run(krumCfg)
	if err != nil {
		t.Fatal(err)
	}
	if krumRes.Diverged {
		t.Error("krum diverged under the Lemma 3.1 takeover")
	}
}

// TestRunRuleSpec: the registry path — a spec string with cluster-shape
// defaults must train identically to the explicitly constructed rule.
func TestRunRuleSpec(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Attack = attack.Gaussian{Sigma: 100}
	explicit, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	specCfg := quickConfig(t)
	specCfg.Attack = attack.Gaussian{Sigma: 100}
	specCfg.Rule = nil
	specCfg.RuleSpec = "krum" // f defaults to cfg.F via SpecContext
	viaSpec, err := Run(specCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(explicit.FinalParams, viaSpec.FinalParams, 0) {
		t.Error("RuleSpec training diverged from explicit rule training")
	}
}

func TestRunRuleSpecErrors(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rule = nil
	cfg.RuleSpec = "nosuchrule"
	if _, err := Run(cfg); !errors.Is(err, krum.ErrBadParameter) {
		t.Errorf("unknown spec error = %v, want ErrBadParameter", err)
	}

	both := quickConfig(t)
	both.RuleSpec = "krum" // Rule is already set
	if _, err := Run(both); !errors.Is(err, ErrConfig) {
		t.Errorf("Rule+RuleSpec error = %v, want ErrConfig", err)
	}
}

// TestRunAttackAndScheduleSpecs: the registry paths for the remaining
// axes — spec strings must train identically to explicitly constructed
// values, mirroring the RuleSpec contract.
func TestRunAttackAndScheduleSpecs(t *testing.T) {
	explicitCfg := quickConfig(t)
	explicitCfg.Attack = attack.Gaussian{Sigma: 100}
	explicit, err := Run(explicitCfg)
	if err != nil {
		t.Fatal(err)
	}

	specCfg := quickConfig(t)
	specCfg.Attack = nil
	specCfg.AttackSpec = "gaussian(sigma=100)"
	specCfg.Schedule = nil
	specCfg.ScheduleSpec = "inverset(gamma=0.5,power=0.75,t0=50)"
	viaSpec, err := Run(specCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(explicit.FinalParams, viaSpec.FinalParams, 0) {
		t.Error("AttackSpec/ScheduleSpec training diverged from explicit construction")
	}
}

func TestRunAttackAndScheduleSpecErrors(t *testing.T) {
	cfg := quickConfig(t)
	cfg.AttackSpec = "nosuchattack"
	if _, err := Run(cfg); !errors.Is(err, attack.ErrBadSpec) {
		t.Errorf("unknown attack spec error = %v, want attack.ErrBadSpec", err)
	}

	both := quickConfig(t)
	both.Attack = attack.Gaussian{Sigma: 100}
	both.AttackSpec = "gaussian"
	if _, err := Run(both); !errors.Is(err, ErrConfig) {
		t.Errorf("Attack+AttackSpec error = %v, want ErrConfig", err)
	}

	sched := quickConfig(t)
	sched.Schedule = nil
	sched.ScheduleSpec = "inverset(gamma=0)"
	if _, err := Run(sched); err == nil {
		t.Error("malformed schedule spec accepted")
	}

	bothSched := quickConfig(t)
	bothSched.ScheduleSpec = "const(gamma=0.1)" // Schedule is already set
	if _, err := Run(bothSched); !errors.Is(err, ErrConfig) {
		t.Errorf("Schedule+ScheduleSpec error = %v, want ErrConfig", err)
	}
}

// TestFinalParamsIsACopy: mutating Result.FinalParams must not affect
// engine-owned state — two runs interleaved with mutation agree.
func TestFinalParamsIsACopy(t *testing.T) {
	cfg := quickConfig(t)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved := vec.Clone(r1.FinalParams)
	for i := range r1.FinalParams {
		r1.FinalParams[i] = math.Inf(1)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(saved, r2.FinalParams, 0) {
		t.Error("mutating FinalParams of one run perturbed a fresh run")
	}
}

// TestFinalTestMetricsNaNWhenNeverEvaluated: EvalEvery = 0 leaves the
// final test metrics as the NaN sentinel (not a misleading zero).
func TestFinalTestMetricsNaNWhenNeverEvaluated(t *testing.T) {
	cfg := quickConfig(t)
	cfg.EvalEvery = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.FinalTestAccuracy) || !math.IsNaN(res.FinalTestLoss) {
		t.Errorf("never-evaluated metrics = (%v, %v), want NaN sentinels",
			res.FinalTestAccuracy, res.FinalTestLoss)
	}

	cfg.EvalEvery = 20
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalTestAccuracy) || math.IsNaN(res.FinalTestLoss) {
		t.Error("evaluated run still reports NaN sentinels")
	}
}

// recordingRule keeps a copy of every round's aggregate F(V_1 … V_n).
type recordingRule struct {
	krum.Rule
	updates *[][]float64
}

func (r recordingRule) Aggregate(dst []float64, vectors [][]float64) error {
	err := r.Rule.Aggregate(dst, vectors)
	*r.updates = append(*r.updates, vec.Clone(dst))
	return err
}

// TestStepIsOneAxpy pins the server's step to the paper's recurrence and
// nothing else: the final parameters of a run equal, bit for bit, the
// initial ones put through x ← x − γ_t·F(V_1 … V_n) by hand with
// γ_t = Schedule.Rate(t), which is also what every round reports.
func TestStepIsOneAxpy(t *testing.T) {
	cfg := quickConfig(t)
	cfg.Rounds, cfg.EvalEvery = 5, 0
	cfg.Schedule = krum.ScheduleInverseTStretched(0.5, 0.75, 2)
	var updates [][]float64
	cfg.Rule = recordingRule{cfg.Rule, &updates}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != cfg.Rounds || len(res.History) != cfg.Rounds {
		t.Fatalf("%d aggregations, %d history entries, want %d of each", len(updates), len(res.History), cfg.Rounds)
	}
	x := cfg.Model.Params(nil)
	for round, f := range updates {
		gamma := cfg.Schedule.Rate(round)
		if got := res.History[round].LearningRate; got != gamma {
			t.Errorf("round %d reports γ = %v, schedule says %v", round, got, gamma)
		}
		for i := range x {
			x[i] -= float64(gamma * f[i])
		}
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(res.FinalParams[i]) {
			t.Fatalf("parameter %d = %v, the hand-rolled recurrence gives %v", i, res.FinalParams[i], x[i])
		}
	}
}
