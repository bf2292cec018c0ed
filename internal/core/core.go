// Package core implements the paper's primary contribution: the Krum and
// Multi-Krum Byzantine-tolerant gradient aggregation rules (Blanchard,
// El Mhamdi, Guerraoui, Stainer — PODC'17 / NeurIPS'17), the baseline
// choice functions the paper compares against (averaging and other linear
// rules, the distance-based "medoid" rule of Section 4, the exponential
// majority-based minimal-diameter rule), and an empirical verifier for
// the (α, f)-Byzantine-resilience property of Definition 3.2.
//
// The exported surface of the repository re-exports this package as the
// root package krum; see that package for usage examples.
package core

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by aggregation rules. They are wrapped with
// contextual detail; test with errors.Is.
var (
	// ErrNoVectors is returned when a rule is invoked with zero input
	// vectors.
	ErrNoVectors = errors.New("core: no input vectors")
	// ErrDimensionMismatch is returned when input vectors (or the
	// destination buffer) disagree on dimension.
	ErrDimensionMismatch = errors.New("core: dimension mismatch")
	// ErrTooFewWorkers is returned when n is too small for the rule's
	// declared Byzantine tolerance (Krum requires n − f − 2 ≥ 1 to be
	// well defined, and n > 2f + 2 for the resilience guarantee of
	// Proposition 4.2).
	ErrTooFewWorkers = errors.New("core: too few workers for declared f")
	// ErrBadParameter is returned for out-of-range rule parameters
	// (negative f, zero trim fraction, m outside 1..n, ...).
	ErrBadParameter = errors.New("core: bad parameter")
)

// Rule is the parameter server's choice function F of the paper's
// Section 2: a deterministic function mapping the n proposed vectors
// V_1, ..., V_n to the update applied to the parameter vector.
//
// Aggregate writes F(vectors...) into dst, which must have the common
// dimension of the inputs. Implementations must not retain or mutate the
// input vectors.
type Rule interface {
	// Name returns a short stable identifier used in experiment tables
	// ("krum", "average", ...).
	Name() string
	// Aggregate computes the aggregate of the proposed vectors into dst.
	Aggregate(dst []float64, vectors [][]float64) error
}

// Selector is implemented by rules that output one of (or a subset of)
// their input vectors rather than an arbitrary point. Select returns the
// indices of the chosen input(s) in selection order. The experiment
// harness uses this to count how often a Byzantine proposal is chosen.
type Selector interface {
	Select(vectors [][]float64) ([]int, error)
}

// checkVectors validates one round's proposals — at least one vector,
// all of one dimension — and returns that dimension.
func checkVectors(vectors [][]float64) (dim int, err error) {
	if len(vectors) == 0 {
		return 0, ErrNoVectors
	}
	d := len(vectors[0])
	for i, v := range vectors {
		if len(v) != d {
			return 0, fmt.Errorf("vector %d has dimension %d, want %d: %w", i, len(v), d, ErrDimensionMismatch)
		}
	}
	return d, nil
}

// checkInputs validates the common preconditions of every rule:
// checkVectors, and dst of matching length.
func checkInputs(dst []float64, vectors [][]float64) error {
	d, err := checkVectors(vectors)
	if err != nil {
		return err
	}
	if len(dst) != d {
		return fmt.Errorf("dst has dimension %d, want %d: %w", len(dst), d, ErrDimensionMismatch)
	}
	return nil
}
