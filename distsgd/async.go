// Rounds under an arrival process (ROADMAP item 5): each round the
// process elects the workers that submit a fresh proposal; every other
// worker's slot replays its last submission, Kardam-damped by
// 1/(1+λ·s) at staleness s when the process sets damp, and no worker
// lags more than τ rounds. The paper's synchronous protocol is the
// τ = 0 process, arrival.Sync, which Run uses when no ArrivalSpec is
// set: every worker arrives every round, so nothing is replayed, copied
// or allocated per round.
//
// The arrival trace derives from (Config.Seed, N) alone (see
// arrival.Process.NewTrace), never from the run's root RNG or
// wall-clock, so a cell's result is a pure function of its Spec on any
// machine and any topology — and a round's arrivals are known before
// the round computes anything.
package distsgd

import (
	"fmt"

	"krum/attack"
	"krum/internal/arrival"
)

// asyncState assembles one run's proposals under its arrival process.
// A fresh proposal is used where it lies: the worker's gradient buffer
// or the attack's lent vector. A proposal is copied only once it is
// replayed — at the top of the first round its worker straggles,
// before that round's gradients and Propose overwrite the source — into
// a replay buffer allocated the first time its slot straggles.
type asyncState struct {
	trace *arrival.Trace
	damp  float64
	// last[i] is worker i's replay buffer: a copy of its most recent
	// submission, nil until i first straggles.
	last [][]float64
	// scratch[i] holds worker i's damped replay, nil until one is
	// needed; an undamped replay is last[i] itself, so the incremental
	// cache sees bit-stable rows.
	scratch [][]float64
	// all is the change-set 0..n−1 of a damped round with replays: the
	// factor moves with staleness, so every stale row is rescaled.
	all []int
}

func newAsyncState(proc arrival.Process, seed uint64, n int) asyncState {
	return asyncState{trace: proc.NewTrace(seed, n), damp: proc.Damp()}
}

// next starts a round. proposals still holds the previous round's
// submissions where they lie, so next copies each one whose worker
// straggles for the first time into its replay buffer. It returns the
// round's change-set for RoundContext.SetChanged, or nil when every
// worker arrives: the cache then diffs the round itself, which also
// catches proposals that repeat on their own (a crashed worker's).
func (a *asyncState) next(proposals [][]float64) []int {
	arrivals := a.trace.Next()
	n := len(proposals)
	if len(arrivals) == n {
		return nil
	}
	if a.last == nil {
		a.last = make([][]float64, n)
	}
	for i, p := range proposals {
		if a.trace.Staleness(i) != 1 {
			continue
		}
		if a.last[i] == nil {
			a.last[i] = make([]float64, len(p))
		}
		copy(a.last[i], p)
	}
	if a.damp == 0 {
		return arrivals
	}
	if a.all == nil {
		a.all = make([]int, n)
		for i := range a.all {
			a.all[i] = i
		}
	}
	return a.all
}

// propose fills proposals with round t's submissions as the server
// aggregates them. Every correct worker computed a gradient whether or
// not it arrives, so the per-worker data RNG streams do not depend on
// the arrival process. The attack runs every round, through the run's
// one ctx, against the effective correct proposals — the full-knowledge
// threat model under asynchrony: the adversary sees what the server is
// about to see, and its own submissions arrive by the same process as
// everyone else's.
func (a *asyncState) propose(t int, proposals, grads [][]float64, atk attack.Strategy, params []float64, ctx *attack.Context) error {
	nc := len(grads)
	for i, g := range grads {
		proposals[i] = a.effective(i, g)
	}
	f := len(proposals) - nc
	if f == 0 {
		return nil
	}
	ctx.Round, ctx.Params, ctx.Correct = t, params, proposals[:nc]
	byz := atk.Propose(ctx)
	if len(byz) != f {
		return fmt.Errorf("attack returned %d proposals, want %d: %w", len(byz), f, ErrConfig)
	}
	for i := nc; i < len(proposals); i++ {
		proposals[i] = a.effective(i, byz[i-nc])
	}
	return nil
}

// effective returns worker i's proposal this round: fresh when it
// arrives, else its replay, scaled into scratch when damped.
func (a *asyncState) effective(i int, fresh []float64) []float64 {
	s := a.trace.Staleness(i)
	if s == 0 {
		return fresh
	}
	factor := arrival.DampFactor(a.damp, s)
	if factor == 1 {
		return a.last[i]
	}
	if a.scratch == nil {
		a.scratch = make([][]float64, len(a.last))
	}
	if a.scratch[i] == nil {
		a.scratch[i] = make([]float64, len(fresh))
	}
	dst := a.scratch[i]
	for j, v := range a.last[i] {
		dst[j] = factor * v
	}
	return dst
}
