// Package distsgd implements the paper's distributed learning protocol
// (Section 2): a reliable parameter server executing synchronous rounds
// against n workers, f of which are Byzantine. Each round the server
// broadcasts the parameter vector, collects the n proposed update
// vectors (correct workers return mini-batch gradient estimates;
// Byzantine proposals come from an attack.Strategy with the paper's
// full-knowledge threat model), applies the configured choice function
// F, and performs the SGD step x_{t+1} = x_t − γ_t·F(V_1, ..., V_n).
//
// Correct gradients come from a GradientSource: an in-process
// concurrent worker pool by default (sim.Pool), or whatever
// Config.Source supplies — the non-IID experiment (E7) substitutes
// sim's heterogeneous pool, and tests substitute fakes.
package distsgd

import (
	"errors"
	"fmt"
	"math"

	"krum/attack"
	"krum/data"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/sim"
	"krum/internal/vec"
	"krum/model"
)

// ErrConfig is returned for invalid training configurations.
var ErrConfig = errors.New("distsgd: bad configuration")

// GradientSource produces the correct workers' proposals for one round.
// It is satisfied by *sim.Pool.
type GradientSource interface {
	// Gradients broadcasts params and returns one gradient estimate per
	// correct worker plus the mean training loss. Returned slices are
	// only valid until the next call.
	Gradients(params []float64) ([][]float64, float64, error)
	// N returns the number of correct workers.
	N() int
	// Dim returns the parameter dimension.
	Dim() int
}

// RoundStats records one synchronous round.
type RoundStats struct {
	// Round is the round index t (0-based).
	Round int
	// TrainLoss is the mean mini-batch loss reported by correct
	// workers at x_t.
	TrainLoss float64
	// UpdateNorm is ‖F(V_1..V_n)‖ — the aggregated step direction
	// magnitude.
	UpdateNorm float64
	// LearningRate is γ_t.
	LearningRate float64
	// ByzantineChosen reports whether a selection-based rule picked a
	// Byzantine proposal this round (only meaningful when the engine
	// tracks selection; see Config.TrackSelection).
	ByzantineChosen bool
	// Evaluated reports whether the test metrics below are valid.
	Evaluated bool
	// TestAccuracy and TestLoss are held-out metrics at x_{t+1}.
	TestAccuracy float64
	// TestLoss is the held-out loss at x_{t+1}.
	TestLoss float64
}

// Result is the outcome of a training run.
type Result struct {
	// History holds one entry per executed round.
	History []RoundStats
	// FinalParams is a defensive copy of x_T: mutating it does not
	// affect any engine-owned buffer.
	FinalParams []float64
	// Diverged reports that parameters left the finite range and the
	// run stopped early (the expected outcome for linear rules under
	// attack — Lemma 3.1 made operational).
	Diverged bool
	// DivergedRound is the round at which divergence was detected
	// (valid only when Diverged).
	DivergedRound int
	// ByzantineSelectedRounds counts rounds in which a selection rule
	// chose a Byzantine proposal.
	ByzantineSelectedRounds int
	// SelectionTrackedRounds counts rounds where selection was
	// observed (denominator for the rate).
	SelectionTrackedRounds int
	// FinalTestAccuracy and FinalTestLoss hold the last evaluation.
	// They are NaN when the run never evaluated (EvalEvery = 0, or
	// divergence before the first evaluation round) — the same sentinel
	// convention as ByzantineSelectionRate.
	FinalTestAccuracy float64
	// FinalTestLoss is the held-out loss at the last evaluation (NaN
	// when never evaluated).
	FinalTestLoss float64
	// Kernel is the accumulation-order family (vec.Tier.Order) the run's
	// distance kernels used — "pair2" or "fma4". Runs under the same
	// family are bit-reproducible against each other; across families
	// only norm-relative agreement holds (see internal/vec/gram.go), so
	// anything comparing Results bit-for-bit must first compare Kernels.
	Kernel string
}

// Config parameterizes Run.
type Config struct {
	// Model is the architecture trained; the engine owns a clone, the
	// caller's instance is not mutated.
	Model model.Model
	// Dataset is the sample distribution used by correct workers and
	// for held-out evaluation.
	Dataset data.Dataset
	// Rule is the parameter server's choice function (krum.Krum,
	// krum.Average, ...). Leave nil and set RuleSpec to construct it
	// from the registry instead.
	Rule core.Rule
	// RuleSpec constructs Rule through the central registry
	// (core.ParseRuleIn) with the cluster shape as defaults — e.g.
	// "krum", "multikrum(m=5)", "bulyan(f=2)". Exactly one of Rule and
	// RuleSpec must be set.
	RuleSpec string
	// AttackSpec constructs Attack through the attack registry
	// (attack.Parse) — e.g. "gaussian(sigma=200)", "omniscient". At
	// most one of Attack and AttackSpec may be set; both empty means no
	// attack.
	AttackSpec string
	// ScheduleSpec constructs Schedule through the schedule registry
	// (sgd.ParseSchedule) — e.g. "inverset(gamma=0.5,power=0.75,t0=200)".
	// Exactly one of Schedule and ScheduleSpec must be set.
	ScheduleSpec string
	// Incremental carries the distance matrix across rounds through the
	// engine's RoundCache: each round the engine recomputes only the
	// rows of proposals that actually changed (exact comparison against
	// the cache's own copies), turning the steady-state distance cost from
	// O(n²·d) into O(c·n·d) for c changed proposals. Results are
	// bit-identical with or without the flag — reused cells equal what
	// a rebuild would recompute — so this is purely a time/space trade:
	// the cache retains O(n·d + n²) memory and pays an O(n·d) diff per
	// distance-consuming round (the diff runs lazily, when a rule first
	// asks for the matrix), which only pays off when some workers replay proposals
	// (crashed/stalled workers, replay attacks, frozen shards). The
	// cache is bypassed (full rebuild) on the first round, on a shape
	// change, and when every proposal changed.
	Incremental bool
	// ArrivalSpec selects the bounded-staleness asynchronous mode
	// through the arrival registry (arrival.Parse) — e.g.
	// "bounded(tau=3)" or "bernoulli(p=0.5,tau=8,damp=0.1)". Each
	// round only the workers elected by the (seed-derived,
	// deterministic) arrival trace submit fresh proposals; the rest
	// replay their last submission, Kardam-damped when the spec sets
	// damp, with lag hard-capped at tau. Empty means the classic
	// synchronous protocol; "sync" (or any tau=0 spec) runs through
	// the async machinery but is byte-identical to the synchronous
	// path — the differential tests in arrival_test.go pin this.
	ArrivalSpec string
	// N is the total number of workers; F of them are Byzantine
	// (0 ≤ F < N).
	N, F int
	// BatchSize is each correct worker's mini-batch size.
	BatchSize int
	// Schedule is the learning-rate schedule γ_t.
	Schedule sgd.Schedule
	// Rounds is the number of synchronous rounds T.
	Rounds int
	// Attack generates Byzantine proposals; nil defaults to
	// attack.None{} (Byzantine slots behave correctly).
	Attack attack.Strategy
	// Seed drives every random choice in the run.
	Seed uint64
	// EvalEvery evaluates held-out metrics every that many rounds
	// (and always on the last round); 0 disables evaluation.
	EvalEvery int
	// EvalBatch is the held-out evaluation sample size; 0 means 512.
	EvalBatch int
	// TrackSelection additionally queries selection-based rules for
	// the chosen indices each round to build Byzantine-selection
	// histograms. The selection pass shares the round's memoized
	// distance matrix with aggregation, so the O(n²·d) cost is paid
	// once; only the O(n²) score extraction runs twice.
	TrackSelection bool
	// Source overrides the default in-process pool of N−F workers
	// (e.g. sim.NewHeterogeneousPool for non-IID data). When set,
	// Source.N() must equal N−F.
	Source GradientSource
	// OnRound, when non-nil, observes every RoundStats as it is
	// produced (streaming output in the experiment binaries).
	OnRound func(RoundStats)
}

func (c *Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("nil model: %w", ErrConfig)
	}
	if c.Dataset == nil {
		return fmt.Errorf("nil dataset: %w", ErrConfig)
	}
	if c.Rule == nil {
		return fmt.Errorf("nil rule: %w", ErrConfig)
	}
	if c.Schedule == nil {
		return fmt.Errorf("nil schedule: %w", ErrConfig)
	}
	if c.N < 1 || c.F < 0 || c.F >= c.N {
		return fmt.Errorf("n = %d, f = %d (need 0 ≤ f < n): %w", c.N, c.F, ErrConfig)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("rounds = %d: %w", c.Rounds, ErrConfig)
	}
	if c.Source == nil && c.BatchSize < 1 {
		return fmt.Errorf("batch size = %d: %w", c.BatchSize, ErrConfig)
	}
	if c.Source != nil && c.Source.N() != c.N-c.F {
		return fmt.Errorf("source has %d workers, want n−f = %d: %w", c.Source.N(), c.N-c.F, ErrConfig)
	}
	return nil
}

// Run executes the synchronous training protocol and returns the full
// round history.
func Run(cfg Config) (*Result, error) {
	if cfg.Rule != nil && cfg.RuleSpec != "" {
		return nil, fmt.Errorf("both Rule and RuleSpec set (%q): %w", cfg.RuleSpec, ErrConfig)
	}
	if cfg.Rule == nil && cfg.RuleSpec != "" {
		rule, err := core.ParseRuleIn(core.SpecContext{N: cfg.N, F: cfg.F}, cfg.RuleSpec)
		if err != nil {
			return nil, fmt.Errorf("rule spec %q: %w", cfg.RuleSpec, err)
		}
		cfg.Rule = rule
	}
	if cfg.Attack != nil && cfg.AttackSpec != "" {
		return nil, fmt.Errorf("both Attack and AttackSpec set (%q): %w", cfg.AttackSpec, ErrConfig)
	}
	if cfg.Attack == nil && cfg.AttackSpec != "" {
		atk, err := attack.Parse(cfg.AttackSpec)
		if err != nil {
			return nil, fmt.Errorf("attack spec %q: %w", cfg.AttackSpec, err)
		}
		cfg.Attack = atk
	}
	if cfg.Schedule != nil && cfg.ScheduleSpec != "" {
		return nil, fmt.Errorf("both Schedule and ScheduleSpec set (%q): %w", cfg.ScheduleSpec, ErrConfig)
	}
	if cfg.Schedule == nil && cfg.ScheduleSpec != "" {
		sched, err := sgd.ParseSchedule(cfg.ScheduleSpec)
		if err != nil {
			return nil, fmt.Errorf("schedule spec %q: %w", cfg.ScheduleSpec, err)
		}
		cfg.Schedule = sched
	}
	var arrivalProc arrival.Process
	if cfg.ArrivalSpec != "" {
		p, err := arrival.Parse(cfg.ArrivalSpec)
		if err != nil {
			return nil, fmt.Errorf("arrival spec %q: %w", cfg.ArrivalSpec, err)
		}
		arrivalProc = p
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	atk := cfg.Attack
	if atk == nil {
		atk = attack.None{}
	}
	rootRNG := vec.NewRNG(cfg.Seed)

	serverModel := cfg.Model.Clone()
	dim := serverModel.Dim()
	params := serverModel.Params(nil)

	source := cfg.Source
	if source == nil {
		pool, err := sim.NewPool(serverModel, cfg.Dataset, cfg.N-cfg.F, cfg.BatchSize, rootRNG.Uint64())
		if err != nil {
			return nil, fmt.Errorf("building worker pool: %w", err)
		}
		source = pool
	}
	if source.Dim() != dim {
		return nil, fmt.Errorf("source dim %d, model dim %d: %w", source.Dim(), dim, ErrConfig)
	}

	evalBatch := cfg.EvalBatch
	if evalBatch <= 0 {
		evalBatch = 512
	}
	var evalX, evalY *vec.Dense
	if cfg.EvalEvery > 0 {
		var err error
		evalX, evalY, err = data.NewBatch(cfg.Dataset, rootRNG.Split(), evalBatch)
		if err != nil {
			return nil, fmt.Errorf("building eval batch: %w", err)
		}
	}

	attackRNG := rootRNG.Split()
	// The engine hands out one RoundContext per round so that selection
	// tracking and aggregation share a single distance matrix; the
	// proposal slice and the pooled update buffer are reused across all
	// rounds (every rule fully overwrites dst). With Incremental set
	// the engine additionally carries the matrix across rounds,
	// diffing each round's proposals lazily on first use. Either way the
	// proposals are only lent to the engine for the round: it reads the
	// pool's, the attack's and the replay buffers where they lie, and
	// the cache copies the rows it keeps, so all of them may be
	// rewritten as soon as the round's aggregate is out.
	engine := new(core.Engine)
	if cfg.Incremental {
		engine.EnableCache()
	}
	// One attack.Context for the whole run, so the strategy reuses its
	// proposal vectors: both paths are done with round t's Byzantine
	// vectors (aggregated, or copied into the replay buffers) before
	// round t+1 asks for new ones.
	atkCtx := &attack.Context{F: cfg.F, RNG: attackRNG}
	// The async state is seeded from cfg.Seed directly (not from a
	// rootRNG draw), so enabling an arrival process never shifts the
	// pool/eval/attack RNG streams — load-bearing for the sync≡async
	// differential and for trace replay in tests.
	var async *asyncState
	if arrivalProc != nil {
		async = newAsyncState(arrivalProc, cfg.Seed, cfg.N, cfg.F, dim)
	}
	proposals := make([][]float64, cfg.N)
	update := vec.GetFloats(dim)
	defer vec.PutFloats(update)
	res := &Result{
		History: make([]RoundStats, 0, cfg.Rounds),
		// NaN until the first evaluation — "never evaluated" is
		// distinguishable from a genuine zero-accuracy result.
		FinalTestAccuracy: math.NaN(),
		FinalTestLoss:     math.NaN(),
		Kernel:            vec.KernelOrder(),
	}

	for t := 0; t < cfg.Rounds; t++ {
		correct, trainLoss, err := source.Gradients(params)
		if err != nil {
			return nil, fmt.Errorf("round %d gradients: %w", t, err)
		}
		var changed []int
		if async != nil {
			changed, err = async.round(t, proposals, correct, atk, params, atkCtx)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", t, err)
			}
		} else {
			copy(proposals, correct)
			if cfg.F > 0 {
				atkCtx.Round, atkCtx.Params, atkCtx.Correct = t, params, correct
				byz := atk.Propose(atkCtx)
				if len(byz) != cfg.F {
					return nil, fmt.Errorf("round %d: attack returned %d proposals, want %d: %w", t, len(byz), cfg.F, ErrConfig)
				}
				copy(proposals[cfg.N-cfg.F:], byz)
			}
		}

		gamma := cfg.Schedule.Rate(t)
		stats := RoundStats{Round: t, TrainLoss: trainLoss, LearningRate: gamma}

		// With Incremental set, the engine's RoundCache diffs the
		// proposals against the previous round lazily, on the first
		// Distances() request: workers whose proposals replayed
		// verbatim (crashed, stalled, frozen) cost no distance
		// recomputation, and rules that never consult distances (e.g.
		// average) never pay the O(n·d) diff at all. Callers with
		// external knowledge of the change-set can still declare it
		// via RoundContext.SetChanged.
		round := engine.Round(proposals)
		if async != nil {
			// The arrival trace knows exactly which rows changed, so
			// declare it instead of letting the cache pay the O(n·d)
			// self-diff — the honest change-set the property tests
			// audit through vec.MatrixRowUpdateCount.
			round.SetChanged(changed)
		}
		if cfg.TrackSelection {
			if sel, ok := cfg.Rule.(core.Selector); ok {
				indices, err := core.SelectContext(sel, round)
				if err != nil {
					return nil, fmt.Errorf("round %d selection: %w", t, err)
				}
				res.SelectionTrackedRounds++
				for _, idx := range indices {
					if idx >= cfg.N-cfg.F {
						stats.ByzantineChosen = true
						res.ByzantineSelectedRounds++
						break
					}
				}
			}
		}

		if err := core.AggregateContext(cfg.Rule, update, round); err != nil {
			return nil, fmt.Errorf("round %d aggregation: %w", t, err)
		}
		stats.UpdateNorm = vec.Norm(update)
		// The paper's step, x_{t+1} = x_t − γ_t·F(V_1 … V_n).
		vec.Axpy(-gamma, update, params)

		if !vec.AllFinite(params) {
			res.Diverged = true
			res.DivergedRound = t
			res.History = append(res.History, stats)
			if cfg.OnRound != nil {
				cfg.OnRound(stats)
			}
			break
		}

		if cfg.EvalEvery > 0 && (t%cfg.EvalEvery == cfg.EvalEvery-1 || t == cfg.Rounds-1) {
			if err := serverModel.SetParams(params); err != nil {
				return nil, fmt.Errorf("round %d eval: %w", t, err)
			}
			acc, err := model.EvalAccuracy(serverModel, evalX, evalY)
			if err != nil {
				return nil, fmt.Errorf("round %d eval accuracy: %w", t, err)
			}
			loss, err := serverModel.Loss(evalX, evalY)
			if err != nil {
				return nil, fmt.Errorf("round %d eval loss: %w", t, err)
			}
			stats.Evaluated = true
			stats.TestAccuracy = acc
			stats.TestLoss = loss
			res.FinalTestAccuracy = acc
			res.FinalTestLoss = loss
		}

		res.History = append(res.History, stats)
		if cfg.OnRound != nil {
			cfg.OnRound(stats)
		}
	}

	res.FinalParams = vec.Clone(params)
	return res, nil
}

// ByzantineSelectionRate returns the fraction of tracked rounds in
// which a Byzantine proposal was selected, or NaN when selection was
// never tracked.
func (r *Result) ByzantineSelectionRate() float64 {
	if r.SelectionTrackedRounds == 0 {
		return math.NaN()
	}
	return float64(r.ByzantineSelectedRounds) / float64(r.SelectionTrackedRounds)
}

// AccuracySeries extracts the (round, accuracy) points of every
// evaluated round — the series the figure benches print.
func (r *Result) AccuracySeries() (rounds []int, accs []float64) {
	for _, s := range r.History {
		if s.Evaluated {
			rounds = append(rounds, s.Round)
			accs = append(accs, s.TestAccuracy)
		}
	}
	return rounds, accs
}
