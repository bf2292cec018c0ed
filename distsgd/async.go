// Bounded-staleness asynchronous execution (ROADMAP item 5): the
// round loop delegates proposal assembly to an asyncState when
// Config.ArrivalSpec is set. Each round the arrival trace elects a
// subset of workers to submit fresh proposals; every other worker's
// slot replays its last submitted proposal (optionally damped by the
// Kardam factor 1/(1+λ·s) for staleness s), and the trace force-
// arrives any worker about to exceed the τ bound.
//
// Two invariants are load-bearing and pinned by tests:
//
//  1. Purity — the arrival trace derives from (Config.Seed, N) alone
//     (see arrival.Process.NewTrace), never from the run's root RNG or
//     wall-clock, so a cell's result is a pure function of its Spec on
//     any machine and any topology.
//  2. Sync differential — ArrivalSpec "sync" (or any τ = 0 spec) runs
//     through this machinery yet is byte-identical to the synchronous
//     path: value copies preserve bits, the attack sees the same
//     Correct values and consumes the same RNG stream, and no extra
//     root-RNG draw happens. An async mode that silently perturbed
//     existing results would invalidate every stored sync cell.
package distsgd

import (
	"fmt"

	"krum/attack"
	"krum/internal/arrival"
)

// asyncState holds one run's bounded-staleness machinery: the arrival
// trace plus the per-worker replay buffers.
type asyncState struct {
	proc  arrival.Process
	trace *arrival.Trace
	n, f  int
	damp  float64
	// last[i] is an owned copy of worker i's most recent submitted
	// proposal — the value replayed while i straggles.
	last [][]float64
	// scratch holds damped copies (only allocated when damp > 0, so
	// the undamped mode replays last[i] by reference and the
	// incremental cache sees bit-stable rows).
	scratch [][]float64
	// changedAll is the 0..n-1 change-set declared when damping is on:
	// the factor depends on current staleness, so every stale row is
	// rescaled every round.
	changedAll []int
}

func newAsyncState(proc arrival.Process, seed uint64, n, f, dim int) *asyncState {
	a := &asyncState{
		proc:  proc,
		trace: proc.NewTrace(seed, n),
		n:     n,
		f:     f,
		damp:  proc.Damp(),
	}
	a.last = make([][]float64, n)
	for i := range a.last {
		a.last[i] = make([]float64, dim)
	}
	if a.damp > 0 {
		a.scratch = make([][]float64, n)
		for i := range a.scratch {
			a.scratch[i] = make([]float64, dim)
		}
		a.changedAll = make([]int, n)
		for i := range a.changedAll {
			a.changedAll[i] = i
		}
	}
	return a
}

// round assembles the effective proposals of round t and returns the
// honest change-set for RoundContext.SetChanged (ascending, freshly
// owned by the caller). correct holds this round's fresh gradients
// from every correct worker — they are all computed regardless of
// arrival so the per-worker data RNG streams match the synchronous
// run exactly; non-arriving workers' fresh values are simply never
// submitted. The attack runs every round (identical attack-RNG
// consumption, through the run's one ctx) against the effective
// correct proposals — the full-knowledge threat model under
// asynchrony: the adversary sees what the server is about to see, and
// its own Byzantine submissions are subject to the same arrival
// process as everyone else's (which is also why the vectors ctx lends
// are copied into the replay buffers, never kept).
func (a *asyncState) round(t int, proposals, correct [][]float64, atk attack.Strategy, params []float64, ctx *attack.Context) ([]int, error) {
	arrivals := a.trace.Next()
	nc := a.n - a.f
	for _, i := range arrivals {
		if i < nc {
			copy(a.last[i], correct[i])
		}
	}
	for i := 0; i < nc; i++ {
		proposals[i] = a.effective(i)
	}
	if a.f > 0 {
		ctx.Round, ctx.Params, ctx.Correct = t, params, proposals[:nc]
		byz := atk.Propose(ctx)
		if len(byz) != a.f {
			return nil, fmt.Errorf("attack returned %d proposals, want %d: %w", len(byz), a.f, ErrConfig)
		}
		for _, i := range arrivals {
			if i >= nc {
				copy(a.last[i], byz[i-nc])
			}
		}
		for i := nc; i < a.n; i++ {
			proposals[i] = a.effective(i)
		}
	}
	if a.damp > 0 {
		return a.changedAll, nil
	}
	return arrivals, nil
}

// effective returns worker i's proposal as the server aggregates it
// this round: the replay buffer itself when fresh or undamped, a
// scaled copy otherwise.
func (a *asyncState) effective(i int) []float64 {
	factor := arrival.DampFactor(a.damp, a.trace.Staleness(i))
	if factor == 1 {
		return a.last[i]
	}
	dst := a.scratch[i]
	for j, v := range a.last[i] {
		dst[j] = factor * v
	}
	return dst
}
