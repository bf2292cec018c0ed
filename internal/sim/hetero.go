package sim

import (
	"fmt"

	"krum/data"
	"krum/internal/vec"
	"krum/model"
)

// NewHeterogeneousPool builds the pool with one dataset per worker (the
// one constructor; NewPool repeats a single dataset) — the substrate
// for the non-i.i.d. experiments (E7): worker i draws its mini-batches
// from datasets[i], so the paper's assumption of i.i.d. unbiased
// gradient estimates across workers is deliberately violated while
// everything else (synchronous rounds, honest computation) stays
// intact.
func NewHeterogeneousPool(template model.Model, datasets []data.Dataset, batch int, seed uint64) (*Pool, error) {
	if template == nil {
		return nil, fmt.Errorf("nil model: %w", ErrConfig)
	}
	if len(datasets) == 0 {
		return nil, fmt.Errorf("no datasets: %w", ErrConfig)
	}
	if batch < 1 {
		return nil, fmt.Errorf("batch = %d: %w", batch, ErrConfig)
	}
	// datasets[0] is nil-checked by the loop's first pass before any
	// later pass reads its shape.
	for i, ds := range datasets {
		if ds == nil {
			return nil, fmt.Errorf("dataset %d is nil: %w", i, ErrConfig)
		}
		if first := datasets[0]; ds.Dim() != first.Dim() || ds.OutDim() != first.OutDim() {
			return nil, fmt.Errorf("dataset %d shape (%d, %d) differs from (%d, %d): %w",
				i, ds.Dim(), ds.OutDim(), first.Dim(), first.OutDim(), ErrConfig)
		}
	}
	dim0, out0 := datasets[0].Dim(), datasets[0].OutDim()
	root := vec.NewRNG(seed)
	p := &Pool{workers: make([]*worker, len(datasets)), dim: template.Dim()}
	for i := range p.workers {
		p.workers[i] = &worker{
			m:    template.Clone(),
			rng:  root.Split(),
			x:    vec.NewDense(batch, dim0),
			y:    vec.NewDense(batch, out0),
			grad: make([]float64, template.Dim()),
			ds:   datasets[i],
		}
	}
	return p, nil
}
