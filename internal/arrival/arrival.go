// Package arrival models bounded-staleness asynchronous rounds as a
// deterministic arrival process over the n workers (ROADMAP item 5,
// after Kardam-style bounded-staleness SGD, Damaskinos et al.
// ICML'18). Each round only an arriving subset of workers submits a
// fresh proposal; stragglers replay their last one, optionally damped
// by a staleness-decreasing factor, and no worker may lag more than τ
// rounds behind — the trace force-arrives any worker about to exceed
// the bound.
//
// Determinism is load-bearing: the scenario store and the scenariod
// fleet both assume every cell is a pure function of its Spec, so an
// arrival trace derives exclusively from the cell seed and the worker
// count — never from wall-clock time or scheduling accidents. Two
// runs of the same cell observe the same arrivals in the same order,
// on any machine and any topology.
//
// Processes are constructed through the spec registry in this package
// (Parse), the fifth registry of the repository after rules, attacks,
// schedules and workloads, with the same round-trip guarantee: every
// Process's Name() is itself a valid spec and Parse(p.Name())
// reconstructs p.
package arrival

import (
	"fmt"

	"krum/internal/vec"
)

// Process describes a deterministic arrival schedule family. A Process
// is immutable and reusable; per-run state lives in the Trace it mints.
type Process interface {
	// Name returns the canonical spec string, parseable by Parse.
	Name() string
	// Tau is the staleness bound τ: a proposal replayed at round t was
	// submitted no earlier than round t−τ. Sync has τ = 0.
	Tau() int
	// Damp is the Kardam-style staleness damping coefficient λ ≥ 0: a
	// proposal of staleness s is scaled by 1/(1+λ·s) before
	// aggregation. 0 disables damping (pure replay).
	Damp() float64
	// NewTrace mints the arrival trace for one run: seed is the cell
	// seed (the same integer that drives the rest of the run), n the
	// total worker count.
	NewTrace(seed uint64, n int) *Trace
}

// DampFactor returns the Kardam damping factor 1/(1+λ·s) for a
// proposal of staleness s rounds under coefficient λ. s = 0 (a fresh
// arrival) always maps to exactly 1, so damping never perturbs
// synchronous traffic.
func DampFactor(lambda float64, s int) float64 {
	if s <= 0 || lambda == 0 {
		return 1
	}
	return 1 / (1 + lambda*float64(s))
}

// decideFunc reports whether worker i would arrive at round t of its
// own accord (before τ-forcing). It must consume the same RNG draws
// regardless of forcing so that traces stay deterministic functions of
// (seed, n) alone.
type decideFunc func(t, i int, rng *vec.RNG) bool

// Trace is the materialized arrival process of one run: a stateful
// iterator yielding, per round, the ascending indices of the workers
// that submit a fresh proposal that round. Round 0 is a cold start —
// every worker arrives, there is nothing to replay. Afterwards a
// worker arrives when its process elects it or when skipping the round
// would push its staleness beyond τ (forced arrival), so
// Staleness(i) ≤ Tau holds at every round by construction.
//
// A Trace is not safe for concurrent use.
type Trace struct {
	n        int
	tau      int
	round    int   // next round Next will serve
	lastAt   []int // round of each worker's most recent fresh arrival
	arrivals []int // the slice Next fills and returns
	decide   decideFunc
	rng      *vec.RNG // nil for RNG-free processes
}

// traceSalt decorrelates the trace RNG stream from every other
// consumer of the cell seed (worker pool, eval batch, attack): the
// trace is seeded from splitMix64(seed XOR salt), not from draws of
// the run's root RNG, so adding or removing evaluation (which draws
// from the root) never shifts the arrival pattern.
const traceSalt = 0xA551C0DE5EEDFACE

func newTrace(seed uint64, n, tau int, decide decideFunc, needRNG bool) *Trace {
	tr := &Trace{
		n:        n,
		tau:      tau,
		lastAt:   make([]int, n),
		arrivals: make([]int, 0, n),
		decide:   decide,
	}
	if needRNG {
		_, mixed := splitMix64(seed ^ traceSalt)
		tr.rng = vec.NewRNG(mixed)
	}
	return tr
}

// splitMix64 advances the SplitMix64 state and returns
// (newState, output) — the same mixer the matrix seed derivation and
// vec.NewRNG use.
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// N returns the worker count the trace was minted for.
func (tr *Trace) N() int { return tr.n }

// Tau returns the staleness bound the trace enforces.
func (tr *Trace) Tau() int { return tr.tau }

// Rounds returns how many rounds Next has served so far.
func (tr *Trace) Rounds() int { return tr.round }

// Next returns the ascending indices of the workers arriving at the
// next round. The slice belongs to the trace and is overwritten by the
// next call, so serving a round allocates nothing. Round 0 always
// returns all n indices (cold start); later rounds contain every
// elected worker plus every worker whose lag would otherwise exceed τ.
func (tr *Trace) Next() []int {
	t := tr.round
	arrivals := tr.arrivals[:0]
	for i := 0; i < tr.n; i++ {
		// The election is evaluated unconditionally so RNG-backed
		// processes consume an identical draw sequence whatever the
		// forcing pattern — the trace stays a pure function of
		// (seed, n).
		elected := tr.decide(t, i, tr.rng)
		forced := t == 0 || t-tr.lastAt[i] > tr.tau
		if elected || forced {
			tr.lastAt[i] = t
			arrivals = append(arrivals, i)
		}
	}
	tr.round++
	return arrivals
}

// Staleness returns the age, in rounds, of worker i's current proposal
// at the most recently served round: 0 for a fresh arrival, and at
// most Tau by construction. It panics if called before the first Next.
func (tr *Trace) Staleness(i int) int {
	if tr.round == 0 {
		panic("arrival: Staleness before first Next")
	}
	return (tr.round - 1) - tr.lastAt[i]
}

// Sync is the degenerate arrival process of the synchronous protocol:
// every worker arrives every round and τ = 0. It is the process
// distsgd runs when no arrival spec is configured, so "sync", every
// τ = 0 spec and the empty spec are one round loop.
type Sync struct{}

// Name implements Process.
func (Sync) Name() string { return "sync" }

// Tau implements Process.
func (Sync) Tau() int { return 0 }

// Damp implements Process.
func (Sync) Damp() float64 { return 0 }

// NewTrace implements Process.
func (Sync) NewTrace(seed uint64, n int) *Trace {
	return newTrace(seed, n, 0, func(t, i int, _ *vec.RNG) bool { return true }, false)
}

// Bounded is a deterministic staggered arrival process: worker i
// arrives exactly when (t+i) mod (τ+1) == 0, so each round ⌈n/(τ+1)⌉
// workers rotate in and every proposal is replayed for exactly τ
// rounds between refreshes. It is the RNG-free worst case for the
// staleness bound — every worker rides the bound permanently — which
// makes it the sharpest test load for τ enforcement and for the
// incremental distance cache.
type Bounded struct {
	// TauBound is the staleness bound τ ≥ 1 (τ = 0 is Sync).
	TauBound int
	// Lambda is the Kardam damping coefficient (see Process.Damp).
	Lambda float64
}

// Name implements Process.
func (b Bounded) Name() string {
	if b.Lambda != 0 {
		return fmt.Sprintf("bounded(tau=%d,damp=%g)", b.TauBound, b.Lambda)
	}
	return fmt.Sprintf("bounded(tau=%d)", b.TauBound)
}

// Tau implements Process.
func (b Bounded) Tau() int { return b.TauBound }

// Damp implements Process.
func (b Bounded) Damp() float64 { return b.Lambda }

// NewTrace implements Process.
func (b Bounded) NewTrace(seed uint64, n int) *Trace {
	period := b.TauBound + 1
	return newTrace(seed, n, b.TauBound, func(t, i int, _ *vec.RNG) bool {
		return (t+i)%period == 0
	}, false)
}

// Bernoulli is an i.i.d. arrival process: at each round every worker
// independently arrives with probability p, drawn from a dedicated
// seed-derived RNG stream, with τ-forcing capping the lag of unlucky
// workers. It models workers with random per-round availability — the
// realistic partial-update traffic the incremental distance cache is
// benchmarked under.
type Bernoulli struct {
	// P is the per-round arrival probability, in (0, 1].
	P float64
	// TauBound is the staleness bound τ ≥ 1 (τ = 0 is Sync).
	TauBound int
	// Lambda is the Kardam damping coefficient (see Process.Damp).
	Lambda float64
}

// Name implements Process.
func (b Bernoulli) Name() string {
	if b.Lambda != 0 {
		return fmt.Sprintf("bernoulli(p=%g,tau=%d,damp=%g)", b.P, b.TauBound, b.Lambda)
	}
	return fmt.Sprintf("bernoulli(p=%g,tau=%d)", b.P, b.TauBound)
}

// Tau implements Process.
func (b Bernoulli) Tau() int { return b.TauBound }

// Damp implements Process.
func (b Bernoulli) Damp() float64 { return b.Lambda }

// NewTrace implements Process.
func (b Bernoulli) NewTrace(seed uint64, n int) *Trace {
	return newTrace(seed, n, b.TauBound, func(t, i int, rng *vec.RNG) bool {
		return rng.Float64() < b.P
	}, true)
}
