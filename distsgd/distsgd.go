// Package distsgd implements the paper's distributed learning protocol
// (Section 2): a reliable parameter server executing synchronous rounds
// against n workers, f of which are Byzantine. Each round the server
// broadcasts the parameter vector, collects the n proposed update
// vectors (correct workers return mini-batch gradient estimates;
// Byzantine proposals come from an attack.Strategy with the paper's
// full-knowledge threat model), applies the configured choice function
// F, and performs the SGD step x_{t+1} = x_t − γ_t·F(V_1, ..., V_n).
//
// A round's proposals come from an arrival process (async.go): the
// synchronous protocol is its τ = 0 case, in which every worker
// arrives every round; with τ > 0 stragglers replay their last
// proposal, the bounded-staleness asynchronous mode.
//
// The n − f correct workers run in-process. Each draws its mini-batch
// from its own RNG substream and sample distribution, and computes its
// gradient on one of K lanes (model replicas), worker i on lane i mod
// K, joined before the round aggregates. Run is a cohort of one
// (cohort.go): RunCohort steps cells that share a sample stream round
// by round together, drawing each batch once. K is vec.Width's rule
// over the round's work (CohortWidth): 1, a plain loop on the calling
// goroutine, for every cell too small to pay for a goroutine, and at
// most GOMAXPROCS. A worker's gradient depends on the round's
// parameters and its own mini-batch alone, so K moves no bit. Every
// worker samples Config.Dataset unless Config.WorkerData gives each
// its own distribution (the non-IID experiment, E7).
package distsgd

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"krum/attack"
	"krum/data"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/model"
)

// ErrConfig is returned for invalid training configurations.
var ErrConfig = errors.New("distsgd: bad configuration")

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
	// FinalParams is x_T, in the run's own parameter buffer, handed
	// over when the run ends: no engine, replica or other Result holds
	// it, so the caller may keep or mutate it.
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
	// Kernel is the accumulation order (vec.KernelOrder) the run's
	// distance kernels used: "fma4", whatever the tier (see
	// internal/vec/gram.go). A Result decoded from older bytes may
	// carry another value.
	Kernel string
	// Stats is the distance work the run's engine did (core.Engine.Stats).
	// It describes this execution, not the outcome: it is not part of
	// the stable encoding, so a decoded or store-served Result has zero
	// Stats and no store key covers it.
	Stats core.CacheStats
}

// Config parameterizes Run.
type Config struct {
	// Model is the architecture trained; the engine owns a clone, the
	// caller's instance is not mutated.
	Model model.Model
	// Dataset is the sample distribution used by correct workers and
	// for held-out evaluation.
	Dataset data.Dataset
	// WorkerData, when non-nil, gives correct worker i its own sample
	// distribution WorkerData[i] (e.g. a label-skewed class subset, E7)
	// while evaluation stays on Dataset. It needs exactly N−F entries,
	// each with Dataset's Dim and OutDim.
	WorkerData []data.Dataset
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
	// ArrivalSpec selects the arrival process through the arrival
	// registry (arrival.Parse) — e.g. "bounded(tau=3)" or
	// "bernoulli(p=0.5,tau=8,damp=0.1)". Each round only the workers
	// elected by the (seed-derived, deterministic) arrival trace submit
	// fresh proposals; the rest replay their last submission,
	// Kardam-damped when the spec sets damp, with lag hard-capped at
	// tau. Empty means arrival.Sync, the paper's synchronous protocol,
	// which "sync" and every tau=0 spec also parse to: every worker
	// arrives every round and nothing is replayed.
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
	if c.BatchSize < 1 {
		return fmt.Errorf("batch size = %d: %w", c.BatchSize, ErrConfig)
	}
	if c.WorkerData != nil && len(c.WorkerData) != c.N-c.F {
		return fmt.Errorf("%d worker datasets, want n−f = %d: %w", len(c.WorkerData), c.N-c.F, ErrConfig)
	}
	for i, ds := range c.WorkerData {
		if ds == nil {
			return fmt.Errorf("worker %d dataset is nil: %w", i, ErrConfig)
		}
		if ds.Dim() != c.Dataset.Dim() || ds.OutDim() != c.Dataset.OutDim() {
			return fmt.Errorf("worker %d dataset shape (%d, %d), want (%d, %d): %w",
				i, ds.Dim(), ds.OutDim(), c.Dataset.Dim(), c.Dataset.OutDim(), ErrConfig)
		}
	}
	return nil
}

// Run executes the synchronous training protocol and returns the full
// round history. It is a cohort of one (RunCohort) on the lanes the
// round's work is worth at GOMAXPROCS.
func Run(cfg Config) (res *Result, err error) {
	cfgs := []Config{cfg}
	RunCohort(cfgs, CohortWidth(runtime.GOMAXPROCS(0), cfgs), func(_ int, r *Result, e error) { res, err = r, e })
	return res, err
}

// resolve builds c's Rule, Attack and Schedule from their specs, its
// arrival process from ArrivalSpec, validates the result and defaults
// a nil Attack to attack.None.
func (c *Config) resolve() (arrival.Process, error) {
	if c.Rule != nil && c.RuleSpec != "" {
		return nil, fmt.Errorf("both Rule and RuleSpec set (%q): %w", c.RuleSpec, ErrConfig)
	}
	if c.Rule == nil && c.RuleSpec != "" {
		rule, err := core.ParseRuleIn(core.SpecContext{N: c.N, F: c.F}, c.RuleSpec)
		if err != nil {
			return nil, fmt.Errorf("rule spec %q: %w", c.RuleSpec, err)
		}
		c.Rule = rule
	}
	if c.Attack != nil && c.AttackSpec != "" {
		return nil, fmt.Errorf("both Attack and AttackSpec set (%q): %w", c.AttackSpec, ErrConfig)
	}
	if c.Attack == nil && c.AttackSpec != "" {
		atk, err := attack.Parse(c.AttackSpec)
		if err != nil {
			return nil, fmt.Errorf("attack spec %q: %w", c.AttackSpec, err)
		}
		c.Attack = atk
	}
	if c.Schedule != nil && c.ScheduleSpec != "" {
		return nil, fmt.Errorf("both Schedule and ScheduleSpec set (%q): %w", c.ScheduleSpec, ErrConfig)
	}
	if c.Schedule == nil && c.ScheduleSpec != "" {
		sched, err := sgd.ParseSchedule(c.ScheduleSpec)
		if err != nil {
			return nil, fmt.Errorf("schedule spec %q: %w", c.ScheduleSpec, err)
		}
		c.Schedule = sched
	}
	var proc arrival.Process = arrival.Sync{}
	if c.ArrivalSpec != "" {
		p, err := arrival.Parse(c.ArrivalSpec)
		if err != nil {
			return nil, fmt.Errorf("arrival spec %q: %w", c.ArrivalSpec, err)
		}
		proc = p
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	if c.Attack == nil {
		c.Attack = attack.None{}
	}
	return proc, nil
}

// evalBatch is the held-out sample size cfg evaluates on, 0 when it
// never evaluates.
func (c *Config) evalBatch() int {
	switch {
	case c.EvalEvery <= 0:
		return 0
	case c.EvalBatch <= 0:
		return 512
	}
	return c.EvalBatch
}

// selector returns rule as a Selector when it selects. A FiniteGuard
// has Select whatever it wraps, but selects only when its inner rule
// does.
func selector(rule core.Rule) (core.Selector, bool) {
	if g, ok := rule.(core.FiniteGuard); ok {
		if _, ok := selector(g.Inner); !ok {
			return nil, false
		}
	}
	sel, ok := rule.(core.Selector)
	return sel, ok
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
