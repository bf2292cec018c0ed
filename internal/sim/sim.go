// Package sim is the in-process substrate for the paper's distributed
// model (Section 2): a pool of correct workers that, in each synchronous
// round, receive the broadcast parameter vector, draw an i.i.d.
// mini-batch, and return gradient estimates. Workers run concurrently
// (one goroutine each per round, joined before the round returns), hold
// independent model replicas and independent RNG substreams, and share
// no mutable state — the same isolation real worker processes would
// have, minus the network.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// ErrConfig is returned for invalid pool configurations.
var ErrConfig = errors.New("sim: bad configuration")

// worker is one correct worker's private state.
type worker struct {
	m    model.Model
	rng  *vec.RNG
	x, y *vec.Dense
	grad []float64
	loss float64
	err  error
	// ds is this worker's sample stream (NewPool hands every worker
	// the same one).
	ds data.Dataset
}

// Pool simulates n correct workers. Construct with NewPool (i.i.d., the
// paper's model) or NewHeterogeneousPool (per-worker distributions, the
// E7 stress test). Pool is not safe for concurrent use by multiple
// goroutines; one training loop owns it.
type Pool struct {
	workers []*worker
	dim     int
	// proposals is the slice Gradients returns, allocated by its first
	// call and refilled by every later one.
	proposals [][]float64
}

// NewPool creates nWorkers replicas of template, each drawing
// batch-sized mini-batches from ds: the heterogeneous pool over
// nWorkers copies of one dataset. Randomness is split from seed so
// worker streams are mutually independent and the whole pool is
// reproducible.
func NewPool(template model.Model, ds data.Dataset, nWorkers, batch int, seed uint64) (*Pool, error) {
	if nWorkers < 1 {
		return nil, fmt.Errorf("nWorkers = %d: %w", nWorkers, ErrConfig)
	}
	datasets := make([]data.Dataset, nWorkers)
	for i := range datasets {
		datasets[i] = ds
	}
	return NewHeterogeneousPool(template, datasets, batch, seed)
}

// N returns the number of workers.
func (p *Pool) N() int { return len(p.workers) }

// Dim returns the parameter dimension.
func (p *Pool) Dim() int { return p.dim }

// Gradients runs one synchronous round: every worker receives params,
// draws a fresh mini-batch and computes its gradient estimate
// V_i = G(x_t, ξ_i). It returns the n proposals and the mean mini-batch
// loss across workers. The returned slices — the outer one included —
// are owned by the pool and remain valid only until the next call. The
// engine reads them in place for the round (a RoundContext borrows its
// proposals and copies nothing); the one thing that outlives a round,
// core.RoundCache, copies the rows it keeps into its own arena.
func (p *Pool) Gradients(params []float64) ([][]float64, float64, error) {
	if len(params) != p.dim {
		return nil, 0, fmt.Errorf("params dim %d, want %d: %w", len(params), p.dim, ErrConfig)
	}
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.err = w.round(w.ds, params)
		}(w)
	}
	wg.Wait()

	if p.proposals == nil {
		p.proposals = make([][]float64, len(p.workers))
	}
	var lossSum float64
	for i, w := range p.workers {
		if w.err != nil {
			return nil, 0, fmt.Errorf("worker %d: %w", i, w.err)
		}
		p.proposals[i] = w.grad
		lossSum += w.loss
	}
	return p.proposals, lossSum / float64(len(p.workers)), nil
}

// round is one worker's round-t computation.
func (w *worker) round(ds data.Dataset, params []float64) error {
	if err := w.m.SetParams(params); err != nil {
		return err
	}
	if err := data.FillBatch(ds, w.rng, w.x, w.y); err != nil {
		return err
	}
	loss, err := w.m.Gradient(w.grad, w.x, w.y)
	if err != nil {
		return err
	}
	w.loss = loss
	return nil
}
