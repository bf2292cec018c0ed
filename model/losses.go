package model

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// Loss couples the scalar training objective with its gradient at the
// network output. Implementations receive raw network outputs (logits
// for the cross-entropy losses, which fold the final softmax/sigmoid in
// for numerical stability).
type Loss interface {
	// Name identifies the loss in logs.
	Name() string
	// Value returns the mean loss over the batch.
	Value(outputs, targets *vec.Dense) (float64, error)
	// Grad writes dL/doutputs (already divided by the batch size) into
	// dst and returns the mean loss.
	Grad(dst, outputs, targets *vec.Dense) (float64, error)
	// Transform maps raw outputs to prediction space (softmax
	// probabilities, sigmoid probabilities, or identity). Used by
	// Predict.
	Transform(outputs *vec.Dense)
}

func checkLossShapes(outputs, targets *vec.Dense) error {
	if outputs.Rows != targets.Rows || outputs.Cols != targets.Cols {
		return fmt.Errorf("outputs %dx%d vs targets %dx%d: %w",
			outputs.Rows, outputs.Cols, targets.Rows, targets.Cols, ErrShape)
	}
	if outputs.Rows == 0 {
		return fmt.Errorf("empty batch: %w", ErrShape)
	}
	return nil
}

// MSE is the mean squared error ½‖out − y‖² averaged over the batch
// (the ½ makes the gradient exactly out − y).
type MSE struct{}

var _ Loss = MSE{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Value implements Loss.
func (MSE) Value(outputs, targets *vec.Dense) (float64, error) {
	if err := checkLossShapes(outputs, targets); err != nil {
		return 0, err
	}
	var s float64
	for i, o := range outputs.Data {
		d := o - targets.Data[i]
		s += d * d
	}
	return s / (2 * float64(outputs.Rows)), nil
}

// Grad implements Loss.
func (MSE) Grad(dst, outputs, targets *vec.Dense) (float64, error) {
	if err := checkLossShapes(outputs, targets); err != nil {
		return 0, err
	}
	inv := 1 / float64(outputs.Rows)
	var s float64
	for i, o := range outputs.Data {
		d := o - targets.Data[i]
		s += d * d
		dst.Data[i] = d * inv
	}
	return s / (2 * float64(outputs.Rows)), nil
}

// Transform implements Loss (identity for regression).
func (MSE) Transform(*vec.Dense) {}

// SoftmaxCrossEntropy is the multi-class cross-entropy over softmax of
// the logits, with one-hot targets. Softmax and loss are fused so the
// output gradient is the numerically benign (softmax − target)/batch.
type SoftmaxCrossEntropy struct{}

var _ Loss = SoftmaxCrossEntropy{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// softmaxRow computes softmax of row in place with max-subtraction.
func softmaxRow(row []float64) {
	m := rowMax(row)
	var sum float64
	for i, v := range row {
		e := math.Exp(v - m)
		row[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}

// rowMax is the largest entry of row as softmaxRow shifts by: a NaN
// after the first entry is passed over.
func rowMax(row []float64) float64 {
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Value implements Loss.
func (SoftmaxCrossEntropy) Value(outputs, targets *vec.Dense) (float64, error) {
	if err := checkLossShapes(outputs, targets); err != nil {
		return 0, err
	}
	var total float64
	for i := 0; i < outputs.Rows; i++ {
		// softmaxRow's probabilities, bit for bit, with no row of
		// scratch: only the targets' are formed.
		row := outputs.Row(i)
		m := rowMax(row)
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		inv := 1 / sum
		for j, t := range targets.Row(i) {
			if t > 0 {
				total -= t * math.Log(math.Max(math.Exp(row[j]-m)*inv, 1e-300))
			}
		}
	}
	return total / float64(outputs.Rows), nil
}

// Grad implements Loss.
func (s SoftmaxCrossEntropy) Grad(dst, outputs, targets *vec.Dense) (float64, error) {
	if err := checkLossShapes(outputs, targets); err != nil {
		return 0, err
	}
	inv := 1 / float64(outputs.Rows)
	var total float64
	for i := 0; i < outputs.Rows; i++ {
		drow := dst.Row(i)
		copy(drow, outputs.Row(i))
		softmaxRow(drow)
		for j, t := range targets.Row(i) {
			if t > 0 {
				total -= t * math.Log(math.Max(drow[j], 1e-300))
			}
			drow[j] = (drow[j] - t) * inv
		}
	}
	return total / float64(outputs.Rows), nil
}

// Transform implements Loss: softmax over each row.
func (SoftmaxCrossEntropy) Transform(outputs *vec.Dense) {
	for i := 0; i < outputs.Rows; i++ {
		softmaxRow(outputs.Row(i))
	}
}

// SigmoidBCE is binary cross-entropy on sigmoid of a single logit
// column, with {0, 1} targets. Like SoftmaxCrossEntropy it is fused:
// gradient = (σ(z) − y)/batch.
type SigmoidBCE struct{}

var _ Loss = SigmoidBCE{}

// Name implements Loss.
func (SigmoidBCE) Name() string { return "sigmoid-bce" }

// Value implements Loss.
func (SigmoidBCE) Value(outputs, targets *vec.Dense) (float64, error) {
	if err := checkLossShapes(outputs, targets); err != nil {
		return 0, err
	}
	var total float64
	for i, z := range outputs.Data {
		y := targets.Data[i]
		// Stable log(1+e^{-|z|}) formulation:
		// BCE = max(z,0) − z·y + log(1+e^{−|z|}).
		total += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	}
	return total / float64(outputs.Rows), nil
}

// Grad implements Loss.
func (SigmoidBCE) Grad(dst, outputs, targets *vec.Dense) (float64, error) {
	v, err := (SigmoidBCE{}).Value(outputs, targets)
	if err != nil {
		return 0, err
	}
	inv := 1 / float64(outputs.Rows)
	for i, z := range outputs.Data {
		dst.Data[i] = (1/(1+math.Exp(-z)) - targets.Data[i]) * inv
	}
	return v, nil
}

// Transform implements Loss: element-wise sigmoid.
func (SigmoidBCE) Transform(outputs *vec.Dense) {
	for i, z := range outputs.Data {
		outputs.Data[i] = 1 / (1 + math.Exp(-z))
	}
}
