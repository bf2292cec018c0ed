// Package model provides the from-scratch learning models the
// reproduction trains with Byzantine-tolerant distributed SGD: linear and
// logistic regression, multi-layer perceptrons and a small convolutional
// network, together with the losses and the flat-parameter plumbing the
// aggregation rules operate on.
//
// Every model exposes its parameters as a single flat []float64 of
// dimension d — the paper's parameter vector x ∈ R^d — and computes flat
// gradient estimates from mini-batches, which is exactly the worker-side
// computation V = G(x, ξ) of the paper's Section 2.
package model

import (
	"errors"
	"fmt"

	"krum/internal/vec"
)

// Sentinel errors for model construction and use.
var (
	// ErrShape is returned when batch shapes or parameter lengths do
	// not match the model.
	ErrShape = errors.New("model: shape mismatch")
	// ErrConfig is returned for invalid model configurations.
	ErrConfig = errors.New("model: bad configuration")
)

// Model is a differentiable predictor with flat parameters. A Model is
// NOT safe for concurrent use; the distributed engines give each worker
// its own replica (Clone) and only exchange flat vectors, mirroring the
// paper's broadcast-compute-aggregate rounds.
type Model interface {
	// Dim returns the number d of parameters.
	Dim() int
	// Params copies the current parameters into dst (allocating when
	// dst is nil) and returns it.
	Params(dst []float64) []float64
	// SetParams overwrites the parameters from the flat vector p.
	SetParams(p []float64) error
	// Gradient computes the mini-batch average gradient of the loss at
	// the current parameters into dst and returns the mini-batch loss.
	// x is the (batch × features) input matrix, y the (batch × outputs)
	// target matrix.
	Gradient(dst []float64, x, y *vec.Dense) (float64, error)
	// Loss returns the mean loss over the batch without touching
	// gradients.
	Loss(x, y *vec.Dense) (float64, error)
	// Predict returns the (batch × outputs) raw model outputs.
	Predict(x *vec.Dense) (*vec.Dense, error)
	// Clone returns an independent deep copy (same architecture and
	// parameter values, no shared state).
	Clone() Model
}

// Accuracy computes classification accuracy from raw outputs: for
// multi-class targets (cols > 1) it compares argmax rows; for a single
// output column it thresholds at 0.5 (binary classification with
// probabilities or at 0 for ±1 margins when margin is true — see
// BinaryAccuracy).
func Accuracy(outputs, targets *vec.Dense) (float64, error) {
	if outputs.Rows != targets.Rows || outputs.Cols != targets.Cols {
		return 0, fmt.Errorf("outputs %dx%d vs targets %dx%d: %w",
			outputs.Rows, outputs.Cols, targets.Rows, targets.Cols, ErrShape)
	}
	if outputs.Rows == 0 {
		return 0, fmt.Errorf("empty batch: %w", ErrShape)
	}
	correct := 0
	if outputs.Cols == 1 {
		for i := 0; i < outputs.Rows; i++ {
			pred := 0.0
			if outputs.At(i, 0) >= 0.5 {
				pred = 1
			}
			if pred == targets.At(i, 0) {
				correct++
			}
		}
	} else {
		for i := 0; i < outputs.Rows; i++ {
			if vec.Argmax(outputs.Row(i)) == vec.Argmax(targets.Row(i)) {
				correct++
			}
		}
	}
	return float64(correct) / float64(outputs.Rows), nil
}

// EvalAccuracy runs m on the batch and returns its accuracy — the
// convenience used by every experiment loop.
func EvalAccuracy(m Model, x, y *vec.Dense) (float64, error) {
	out, err := m.Predict(x)
	if err != nil {
		return 0, err
	}
	return Accuracy(out, y)
}

// Evaluate returns m's accuracy and mean loss on the batch: the values
// EvalAccuracy and m.Loss return, bit for bit. A *Network takes both
// from one forward pass and, once warm, allocates nothing; any other
// Model runs the two calls.
func Evaluate(m Model, x, y *vec.Dense) (acc, loss float64, err error) {
	if n, ok := m.(*Network); ok {
		return n.evaluate(x, y)
	}
	if acc, err = EvalAccuracy(m, x, y); err != nil {
		return 0, 0, err
	}
	loss, err = m.Loss(x, y)
	return acc, loss, err
}
