package data

import (
	"fmt"

	"krum/internal/vec"
)

// ClassFilter restricts a one-hot classification dataset to a subset of
// classes by rejection sampling. It is the building block for
// heterogeneous (non-i.i.d.) worker populations: give each worker a
// different class subset and the paper's assumption that correct
// gradients are i.i.d. unbiased estimates of ∇Q breaks — exactly the
// "biases in the way the data samples are distributed among the
// processes" failure mode of the paper's introduction, studied in
// experiment E7.
//
// Construct with NewClassFilter.
type ClassFilter struct {
	base    Dataset
	allowed []bool
	classes []int
}

// NewClassFilter wraps a one-hot dataset, keeping only the listed
// classes.
func NewClassFilter(base Dataset, classes []int) (*ClassFilter, error) {
	if base == nil {
		return nil, fmt.Errorf("nil base: %w", ErrConfig)
	}
	k := base.OutDim()
	if k < 2 {
		return nil, fmt.Errorf("base has %d outputs (need one-hot classes): %w", k, ErrConfig)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("no classes kept: %w", ErrConfig)
	}
	allowed := make([]bool, k)
	for _, c := range classes {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("class %d out of range [0, %d): %w", c, k, ErrConfig)
		}
		allowed[c] = true
	}
	return &ClassFilter{
		base:    base,
		allowed: allowed,
		classes: append([]int(nil), classes...),
	}, nil
}

var _ Dataset = (*ClassFilter)(nil)

// Dim implements Dataset.
func (c *ClassFilter) Dim() int { return c.base.Dim() }

// OutDim implements Dataset (targets keep the full one-hot width so
// models are shared across heterogeneous workers).
func (c *ClassFilter) OutDim() int { return c.base.OutDim() }

// Classes returns a copy of the kept class list.
func (c *ClassFilter) Classes() []int { return append([]int(nil), c.classes...) }

// Sample implements Dataset by rejection: redraw until the base sample's
// class is in the kept set. The expected number of redraws is
// k/len(classes) for a uniform base.
func (c *ClassFilter) Sample(rng *vec.RNG, x, y []float64) {
	for {
		c.base.Sample(rng, x, y)
		if c.allowed[vec.Argmax(y)] {
			return
		}
	}
}

// PartitionClasses deals the k classes of a dataset round-robin into
// nWorkers subsets (worker i gets classes i, i+nWorkers, ...), the
// standard label-skew partition for non-i.i.d. federated experiments.
// Workers ≥ k receive a wrapped single class.
func PartitionClasses(base Dataset, nWorkers int) ([]*ClassFilter, error) {
	if nWorkers < 1 {
		return nil, fmt.Errorf("nWorkers = %d: %w", nWorkers, ErrConfig)
	}
	k := base.OutDim()
	out := make([]*ClassFilter, nWorkers)
	for w := 0; w < nWorkers; w++ {
		var classes []int
		for c := w % k; c < k; c += nWorkers {
			classes = append(classes, c)
		}
		cf, err := NewClassFilter(base, classes)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		out[w] = cf
	}
	return out, nil
}
