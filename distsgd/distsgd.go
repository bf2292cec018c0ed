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
// The n − f correct workers run in-process. Each holds its own RNG
// substream, sample distribution and gradient buffer, and computes on
// one of K lanes — a model replica and a batch buffer — worker i on
// lane i mod K, joined before the round aggregates. K is vec.Width's
// rule over the round's work (laneCount): 1, a plain loop on the
// calling goroutine, for every cell too small to pay for a goroutine,
// and at most GOMAXPROCS. A worker's gradient depends on the round's
// parameters and its own mini-batch alone, so K moves no bit.
// Every worker samples Config.Dataset unless Config.WorkerData gives
// each its own distribution (the non-IID experiment, E7).
package distsgd

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"krum/attack"
	"krum/data"
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/vec"
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

// worker is one correct worker's own state: its RNG substream, its
// sample distribution, its gradient buffer (its proposal, lent to the
// engine and the attack for the round) and its last mini-batch loss.
// What it computes on is a lane's.
type worker struct {
	rng  *vec.RNG
	ds   data.Dataset
	grad []float64
	loss float64
}

// lane is one model replica and one batch buffer. Worker i computes on
// lane i mod K; a lane runs its workers in index order.
type lane struct {
	m    model.Model
	x, y *vec.Dense
	// err is the error of worker failed, the lane's first to fail this
	// round; nil when every one succeeded.
	failed int
	err    error
}

// laneCount returns K for nc correct workers of batch samples on a
// d-parameter model when the host runs procs goroutines at once:
// vec.Width over the workers, a round's work counted as
// 3·nc·batch·d multiply-adds (a forward and a backward pass).
func laneCount(procs, nc, batch, d int) int {
	return vec.Width(procs, nc, 3*uint64(nc)*uint64(batch)*uint64(d))
}

// run is the round-t computation of workers first, first+stride, …:
// each draws a fresh mini-batch ξ_i and computes V_i = G(x_t, ξ_i)
// into its gradient buffer. It stops at the first failure.
func (l *lane) run(workers []worker, first, stride int, params []float64) {
	l.failed, l.err = first, l.m.SetParams(params)
	for i := first; i < len(workers) && l.err == nil; i += stride {
		l.failed = i
		w := &workers[i]
		if l.err = data.FillBatch(w.ds, w.rng, l.x, l.y); l.err == nil {
			w.loss, l.err = l.m.Gradient(w.grad, l.x, l.y)
		}
	}
}

// gradients runs one synchronous round of the correct workers on the
// lanes — lane 0 on the calling goroutine, each other lane on a
// goroutine of its own — and returns their mean mini-batch loss summed
// in worker order, or the error of the first worker that failed.
func gradients(lanes []lane, workers []worker, params []float64) (float64, error) {
	var wg sync.WaitGroup
	for k := 1; k < len(lanes); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lanes[k].run(workers, k, len(lanes), params)
		}()
	}
	lanes[0].run(workers, 0, len(lanes), params)
	wg.Wait()
	var lossSum float64
	for i := range workers {
		if l := &lanes[i%len(lanes)]; l.err != nil && l.failed == i {
			return 0, fmt.Errorf("worker %d: %w", i, l.err)
		}
		lossSum += workers[i].loss
	}
	return lossSum / float64(len(workers)), nil
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
	var arrivalProc arrival.Process = arrival.Sync{}
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

	// The correct workers' gradient buffers belong to Run: worker i's
	// buffer is rewritten by every round and lent to the engine and the
	// attack for that round only.
	workerRNG := vec.NewRNG(rootRNG.Uint64())
	workers := make([]worker, cfg.N-cfg.F)
	for i := range workers {
		ds := cfg.Dataset
		if cfg.WorkerData != nil {
			ds = cfg.WorkerData[i]
		}
		workers[i] = worker{rng: workerRNG.Split(), ds: ds, grad: make([]float64, dim)}
	}
	lanes := make([]lane, laneCount(runtime.GOMAXPROCS(0), len(workers), cfg.BatchSize, dim))
	for k := range lanes {
		lanes[k] = lane{
			m: serverModel.Clone(),
			x: vec.NewDense(cfg.BatchSize, cfg.Dataset.Dim()),
			y: vec.NewDense(cfg.BatchSize, cfg.Dataset.OutDim()),
		}
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
	// the engine additionally carries the matrix across rounds. Either
	// way the proposals are only lent to the engine for the round: it
	// reads the workers', the attack's and the replay buffers where they
	// lie, and the cache copies the rows it keeps, so all of them may be
	// rewritten once the round's aggregate is out.
	engine := new(core.Engine)
	if cfg.Incremental {
		engine.EnableCache()
	}
	// One attack.Context for the whole run, so the strategy reuses its
	// proposal vectors: round t's Byzantine vectors are aggregated, and
	// copied into a replay buffer at the top of round t+1, before round
	// t+1 asks for new ones.
	atkCtx := &attack.Context{F: cfg.F, RNG: attackRNG}
	// The arrival trace is seeded from cfg.Seed directly (not from a
	// rootRNG draw), so the arrival process never shifts the
	// worker/eval/attack RNG streams, and tests can replay the trace.
	arrivals := newAsyncState(arrivalProc, cfg.Seed, cfg.N)
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
		changed := arrivals.next(proposals)
		trainLoss, err := gradients(lanes, workers, params)
		if err != nil {
			return nil, fmt.Errorf("round %d gradients: %w", t, err)
		}
		if err := arrivals.propose(t, proposals, workers, atk, params, atkCtx); err != nil {
			return nil, fmt.Errorf("round %d: %w", t, err)
		}

		gamma := cfg.Schedule.Rate(t)
		stats := RoundStats{Round: t, TrainLoss: trainLoss, LearningRate: gamma}

		// With Incremental set, the engine's RoundCache serves the
		// matrix on the first Distances() request, recomputing only
		// changed rows; rules that never consult distances (e.g.
		// average) never pay for it. On a round with replays the
		// arrival trace knows which rows changed and declares them —
		// the honest change-set the property tests audit through
		// Result.Stats.RowUpdates. On a full-arrival round the cache
		// diffs the proposals itself, so a worker whose proposal
		// repeats verbatim (crashed, stalled, frozen) costs no
		// distance recomputation.
		round := engine.Round(proposals)
		if changed != nil {
			round.SetChanged(changed)
		}
		if cfg.TrackSelection {
			if sel, ok := selector(cfg.Rule); ok {
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
	res.Stats = engine.Stats()
	return res, nil
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
