// Package krum is a Go implementation of the Krum Byzantine-tolerant
// gradient aggregation rule and of the distributed SGD protocol it
// protects, reproducing "Brief Announcement: Byzantine-Tolerant Machine
// Learning" (Blanchard, El Mhamdi, Guerraoui, Stainer — PODC 2017; full
// version "Machine Learning with Adversaries", NeurIPS 2017).
//
// # The problem
//
// Distributed SGD deployments aggregate worker gradient estimates by
// averaging. Lemma 3.1 of the paper shows that ANY linear aggregation is
// defenceless: one Byzantine worker can steer the aggregate to an
// arbitrary vector and prevent convergence. Krum replaces the average
// with a non-linear, distance-based selection that provably tolerates f
// Byzantine workers whenever n > 2f + 2.
//
// # The rule
//
// Given proposals V_1, ..., V_n, Krum assigns each worker the score
//
//	s(i) = Σ_{i→j} ‖V_i − V_j‖²
//
// summed over the n − f − 2 proposals closest to V_i, and outputs the
// proposal with the minimal score (ties to the smallest worker id). The
// cost is O(n²·d) — Lemma 4.1 — versus the exponential cost of
// majority-subset methods (implemented here as NewMinimalDiameter for
// comparison).
//
// # Quick start
//
//	rule := krum.NewKrum(f)              // tolerate f Byzantine workers
//	out := make([]float64, d)
//	if err := rule.Aggregate(out, proposals); err != nil { ... }
//
// # Choosing a rule by spec string
//
// Every rule lives in a central registry and is constructible from a
// compact spec string — the form used by the CLI binaries and by
// distsgd.Config.RuleSpec:
//
//	rule, err := krum.ParseRule("multikrum(f=2,m=5)")
//	rule, err = krum.ParseRuleIn(krum.SpecContext{N: 15, F: 3}, "krum") // f defaults to 3
//
// Names and parameters are case-insensitive; omitted parameters fall
// back to the SpecContext cluster shape. RuleUsage renders a generated
// help line listing every registered rule (the CLI -rule help text is
// built from it, so it can never drift), and RegisterRule adds custom
// rules to the same namespace.
//
// # Shared aggregation engine
//
// Distance-based rules all revolve around the same O(n²·d) pairwise
// distance matrix (Lemma 4.1). An Engine hands out one RoundContext per
// round of proposals so that selection tracking, aggregation, and any
// diagnostics build that matrix exactly once:
//
//	engine := krum.NewEngine(0)
//	sel, _ := engine.Select(rule, proposals)      // builds the matrix
//	_ = engine.Aggregate(rule, out, proposals)    // rebuilds it (new round)
//
// engine.Stats() counts the builds (here 2) and row updates its rounds
// did. distsgd.Run uses the engine internally and reports its count as
// Result.Stats; Bulyan's iterated-Krum phase is memoized on the same
// machinery (Θ(n²·d + θ·n²) instead of Θ(θ·n²·d)).
//
// or train end to end against an attack with package
// krum/distsgd:
//
//	res, err := distsgd.Run(distsgd.Config{
//		Model:    m, Dataset: ds,
//		Rule:     krum.NewKrum(3),
//		N:        15, F: 3,
//		Attack:   attack.Omniscient{},
//		BatchSize: 32, Rounds: 300,
//		Schedule: krum.ScheduleInverseT(0.1, 0.75),
//	})
//
// Whole experiment grids are declarative too: package krum/scenario
// turns (workload, rule, attack, schedule) spec strings plus the
// cluster shape into JSON-serializable scenario.Spec values, expands
// cartesian matrices over any axis, and runs them on a bounded
// concurrent runner — the machinery behind
// `krum-experiments -config matrix.json`. Because every cell is a pure
// function of its spec, results cache across processes through the
// content-addressed store in krum/scenario/store (wired to
// `krum-experiments -store` and the krum-scenariod matrix service):
// repeated or overlapping grids replay stored cells byte-identically
// instead of retraining.
//
// See the examples/ directory for complete programs, EXPERIMENTS.md
// for the reproduction of every figure of the paper's evaluation, and
// ARCHITECTURE.md for the layer map and the load-bearing contracts.
package krum

import (
	"krum/internal/arrival"
	"krum/internal/core"
	"krum/internal/sgd"
	"krum/internal/vec"
)

// Rule is the parameter server's choice function F (paper Section 2).
// All aggregation rules in this package implement it.
type Rule = core.Rule

// Selector is implemented by rules that output one of (or a subset of)
// their inputs; Select exposes the chosen indices for
// selection-histogram experiments.
type Selector = core.Selector

// Adversary generates Byzantine proposals for resilience verification
// (see VerifyResilience).
type Adversary = core.Adversary

// ResilienceConfig parameterizes VerifyResilience.
type ResilienceConfig = core.ResilienceConfig

// ResilienceReport is the Monte-Carlo estimate of the Definition 3.2
// conditions.
type ResilienceReport = core.ResilienceReport

// Krum is the paper's choice function (Section 4).
type Krum = core.Krum

// MultiKrum averages the m best-scored proposals (full paper, Figure 6).
type MultiKrum = core.MultiKrum

// Average is the classical (non-resilient) barycentric rule.
type Average = core.Average

// Linear is the general linear rule of Lemma 3.1.
type Linear = core.Linear

// Medoid is the distance-based rule of Section 4 (tolerates only one
// Byzantine worker; see Figure 2).
type Medoid = core.Medoid

// CoordMedian is the coordinate-wise median baseline.
type CoordMedian = core.CoordMedian

// TrimmedMean is the coordinate-wise trimmed-mean baseline.
type TrimmedMean = core.TrimmedMean

// GeoMedian is the Weiszfeld geometric-median baseline.
type GeoMedian = core.GeoMedian

// MinimalDiameter is the exponential majority-based rule sketched in
// the paper's introduction.
type MinimalDiameter = core.MinimalDiameter

// Bulyan is the authors' follow-up defense (ICML 2018) combining
// iterated Krum with a coordinate-wise trimmed mean; it closes Krum's
// hidden-single-coordinate vulnerability and requires n ≥ 4f + 3.
type Bulyan = core.Bulyan

// FiniteGuard wraps any rule with a pre-filter replacing non-finite
// (NaN/Inf) proposals with zero vectors, so one malformed Byzantine
// message cannot poison the distance computations of the inner rule.
type FiniteGuard = core.FiniteGuard

// ClippedMean is the norm-clipping baseline: proposals rescaled to the
// median norm, then averaged. Defeats magnitude attacks at O(n·d) but
// offers no directional guarantee (fails Definition 3.2 against
// sign-flipping adversaries) — an ablation baseline, not a defense.
type ClippedMean = core.ClippedMean

// KrumK is the research/ablation variant of Krum with an explicit
// neighbour count K instead of the paper's n − f − 2. It demonstrates
// why that value is the right one (large K degenerates to the medoid,
// K ≤ f−1 is captured by an identical-clique collusion); use Krum for
// real deployments.
type KrumK = core.KrumK

// SpecContext supplies cluster-shape defaults (n, f) for rule-spec
// parameters the spec string omits; see ParseRuleIn.
type SpecContext = core.SpecContext

// RuleFactory builds a rule from a parsed spec; see RegisterRule.
type RuleFactory = core.Factory

// RuleArgs holds the key=value parameters of a parsed rule spec.
type RuleArgs = core.Args

// Engine is the shared aggregation engine: it hands out one
// RoundContext per round so every rule invocation over the same
// proposals shares a single distance matrix.
type Engine = core.Engine

// RoundContext carries one round's proposals plus the lazily-built,
// memoized pairwise distance matrix shared by distance-based rules. It
// borrows the proposals — nothing is copied, so they must not be
// mutated while the context is in use and are the caller's again after.
type RoundContext = core.RoundContext

// RoundCache carries the distance matrix across rounds on a
// cache-enabled Engine (Engine.EnableCache), recomputing only the rows
// of proposals that changed between rounds. It keeps its own copy of
// the last round it served, so proposal buffers may be recycled.
type RoundCache = core.RoundCache

// CacheStats counts the distance work of an Engine's rounds
// (Engine.Stats, distsgd.Result.Stats): full builds, cached rounds
// served without one, rows recomputed, and the kernels' multiply-adds.
type CacheStats = core.CacheStats

// ContextSelector is implemented by selection rules that can run
// against a shared RoundContext.
type ContextSelector = core.ContextSelector

// ContextRule is implemented by rules whose aggregation can run against
// a shared RoundContext.
type ContextRule = core.ContextRule

// Sentinel errors re-exported from the core implementation.
var (
	// ErrNoVectors is returned when a rule receives zero proposals.
	ErrNoVectors = core.ErrNoVectors
	// ErrDimensionMismatch is returned on inconsistent dimensions.
	ErrDimensionMismatch = core.ErrDimensionMismatch
	// ErrTooFewWorkers is returned when n is too small for the
	// declared f.
	ErrTooFewWorkers = core.ErrTooFewWorkers
	// ErrBadParameter is returned for out-of-range rule parameters.
	ErrBadParameter = core.ErrBadParameter
)

// NewKrum returns the Krum rule tolerating f Byzantine workers
// (requires n ≥ f + 3 proposals; the Proposition 4.2 guarantee
// additionally needs n > 2f + 2).
func NewKrum(f int) *Krum { return core.NewKrum(f) }

// NewMultiKrum returns the m-Krum rule: the average of the m proposals
// with the smallest Krum scores.
func NewMultiKrum(f, m int) *MultiKrum { return core.NewMultiKrum(f, m) }

// NewLinear returns the linear rule Σ λ_i·V_i of Lemma 3.1; all
// coefficients must be non-zero.
func NewLinear(weights []float64) (*Linear, error) { return core.NewLinear(weights) }

// NewMinimalDiameter returns the exponential minimal-diameter subset
// rule excluding f proposals.
func NewMinimalDiameter(f int) *MinimalDiameter { return core.NewMinimalDiameter(f) }

// NewBulyan returns the Bulyan rule tolerating f Byzantine workers
// (requires n ≥ 4f + 3 proposals).
func NewBulyan(f int) *Bulyan { return core.NewBulyan(f) }

// ParseRule constructs a rule from a registry spec string such as
// "krum(f=2)" or "multikrum(f=2,m=5)". Parameters without a universal
// default must be spelled out; use ParseRuleIn to supply cluster-shape
// defaults instead.
func ParseRule(spec string) (Rule, error) { return core.ParseRule(spec) }

// ParseRuleIn constructs a rule from a spec string with cluster-shape
// defaults: ParseRuleIn(SpecContext{N: 15, F: 3}, "krum") yields
// Krum{F: 3}. Unknown names and malformed parameters are reported as
// wrapped ErrBadParameter.
func ParseRuleIn(ctx SpecContext, spec string) (Rule, error) { return core.ParseRuleIn(ctx, spec) }

// RegisterRule adds a custom rule factory to the central registry under
// the given (case-insensitive) name; it panics on duplicates.
func RegisterRule(name string, f RuleFactory) { core.Register(name, f) }

// RuleUsage returns a generated one-line summary of every registered
// rule with its parameters — CLI help text is built from this.
func RuleUsage() string { return core.Usage() }

// NewEngine returns a shared aggregation engine. Its argument is
// ignored — a distance build works out its own goroutine count from n,
// d and GOMAXPROCS, and the count moves no bit of any result — and the
// parameter stays only because existing callers (the repo benchmark's
// krum.NewEngine(0)) pass one.
func NewEngine(_ int) *Engine { return new(core.Engine) }

// NewRoundContext returns a context over one round's proposals; rules
// invoked through it (core.SelectContext / core.AggregateContext) share
// a single memoized distance matrix.
func NewRoundContext(vectors [][]float64) *RoundContext { return core.NewRoundContext(vectors) }

// Eta returns η(n, f) of Proposition 4.2, the constant relating the
// gradient-estimator deviation to the resilience angle via
// sin α = η(n,f)·√d·σ/‖g‖.
func Eta(n, f int) (float64, error) { return core.Eta(n, f) }

// VerifyResilience Monte-Carlo checks the (α, f)-Byzantine-resilience
// conditions of Definition 3.2 for an arbitrary rule and adversary.
func VerifyResilience(cfg ResilienceConfig) (*ResilienceReport, error) {
	return core.VerifyResilience(cfg)
}

// Schedule is a learning-rate schedule γ_t.
type Schedule = sgd.Schedule

// ScheduleFactory builds a schedule from a parsed spec; see
// RegisterSchedule.
type ScheduleFactory = sgd.ScheduleFactory

// ErrBadSchedule is returned for malformed schedule specs and invalid
// schedule parameters.
var ErrBadSchedule = sgd.ErrBadSchedule

// ParseSchedule constructs a schedule from a registry spec string such
// as "const(gamma=0.1)" or "inverset(gamma=0.5,power=0.75,t0=200)" —
// the form accepted by the CLI binaries, scenario files, and
// distsgd.Config.ScheduleSpec. Every built-in schedule's Name() is
// itself a valid spec (round-trips).
func ParseSchedule(spec string) (Schedule, error) { return sgd.ParseSchedule(spec) }

// RegisterSchedule adds a custom schedule factory to the central
// registry under the given (case-insensitive) name; it panics on
// duplicates.
func RegisterSchedule(name string, f ScheduleFactory) { sgd.RegisterSchedule(name, f) }

// ScheduleNames returns the sorted names of every registered schedule.
func ScheduleNames() []string { return sgd.ScheduleNames() }

// ScheduleUsage returns a generated one-line summary of every
// registered schedule with its parameters — CLI help text is built from
// this.
func ScheduleUsage() string { return sgd.ScheduleUsage() }

// ScheduleConstant returns the fixed schedule γ_t = gamma.
func ScheduleConstant(gamma float64) Schedule { return sgd.Constant{Gamma: gamma} }

// ScheduleInverseT returns γ_t = gamma/(1+t)^power, which satisfies the
// Robbins–Monro conditions of Proposition 4.3 for 0.5 < power ≤ 1.
func ScheduleInverseT(gamma, power float64) Schedule {
	return sgd.InverseT{Gamma: gamma, Power: power}
}

// ScheduleInverseTStretched is ScheduleInverseT with a decay horizon:
// γ_t = gamma/(1+t/t0)^power.
func ScheduleInverseTStretched(gamma, power, t0 float64) Schedule {
	return sgd.InverseT{Gamma: gamma, Power: power, T0: t0}
}

// ScheduleStep returns the step-decay schedule used by the deep
// experiments: rate gamma multiplied by factor every `every` rounds.
func ScheduleStep(gamma float64, every int, factor float64) Schedule {
	return sgd.Step{Gamma: gamma, Every: every, Factor: factor}
}

// KernelTier is the identity of one Gram-microkernel implementation
// tier (see internal/vec): "go" or "avx2", selected once at process
// start from CPU feature detection and the KRUM_KERNEL_TIER
// environment knob. The tier is a speed setting: every tier computes
// one canonical floating-point accumulation order (ActiveKernelOrder),
// bit for bit.
type KernelTier = vec.Tier

// ActiveKernelTier returns the kernel tier every distance computation
// in this process dispatches to.
func ActiveKernelTier() KernelTier { return vec.KernelTier() }

// ActiveKernelOrder returns the kernel accumulation order ("fma4",
// the same on every tier) — the identity distsgd.Result.Kernel records,
// the scenario store salts keys with, and the fleet join handshake
// pins.
func ActiveKernelOrder() string { return vec.KernelOrder() }

// ArrivalProcess is a deterministic arrival process describing which
// workers submit fresh proposals each round under the bounded-staleness
// asynchronous mode (distsgd.Config.ArrivalSpec,
// scenario.Spec.Arrival). See internal/arrival.
type ArrivalProcess = arrival.Process

// ArrivalFactory builds an arrival process from a parsed spec; see
// RegisterArrival.
type ArrivalFactory = arrival.Factory

// ErrBadArrival is returned for malformed arrival specs and invalid
// arrival parameters.
var ErrBadArrival = arrival.ErrBadArrival

// ParseArrival constructs an arrival process from a registry spec
// string such as "sync", "bounded(tau=3)" or
// "bernoulli(p=0.5,tau=8,damp=0.1)" — the form accepted by
// distsgd.Config.ArrivalSpec and scenario files. Every built-in
// process's Name() is itself a valid spec (round-trips); tau=0 specs
// canonicalize to "sync".
func ParseArrival(spec string) (ArrivalProcess, error) { return arrival.Parse(spec) }

// RegisterArrival adds a custom arrival-process factory to the central
// registry under the given (case-insensitive) name; it panics on
// duplicates.
func RegisterArrival(name string, f ArrivalFactory) { arrival.Register(name, f) }

// ArrivalUsage returns a generated one-line summary of every registered
// arrival process with its parameters — CLI help text is built from
// this.
func ArrivalUsage() string { return arrival.Usage() }
