package model

import (
	"errors"
	"math"
	"testing"

	"krum/internal/vec"
)

// numericalGradient estimates the flat gradient of m's loss at its
// current parameters by central differences.
func numericalGradient(t *testing.T, m Model, x, y *vec.Dense, eps float64) []float64 {
	t.Helper()
	d := m.Dim()
	p := m.Params(nil)
	grad := make([]float64, d)
	for i := 0; i < d; i++ {
		orig := p[i]
		p[i] = orig + eps
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lp, err := m.Loss(x, y)
		if err != nil {
			t.Fatal(err)
		}
		p[i] = orig - eps
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
		lm, err := m.Loss(x, y)
		if err != nil {
			t.Fatal(err)
		}
		grad[i] = (lp - lm) / (2 * eps)
		p[i] = orig
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	return grad
}

// checkGradient asserts analytic and numerical gradients agree in
// relative terms.
func checkGradient(t *testing.T, m Model, x, y *vec.Dense, tol float64) {
	t.Helper()
	analytic := make([]float64, m.Dim())
	if _, err := m.Gradient(analytic, x, y); err != nil {
		t.Fatal(err)
	}
	numeric := numericalGradient(t, m, x, y, 1e-5)
	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1, math.Max(math.Abs(analytic[i]), math.Abs(numeric[i])))
		if diff/scale > tol {
			t.Fatalf("gradient mismatch at %d: analytic %v vs numeric %v", i, analytic[i], numeric[i])
		}
	}
}

// randomBatch builds a batch of gaussian inputs and one-hot targets.
func randomBatch(rng *vec.RNG, batch, in, classes int) (*vec.Dense, *vec.Dense) {
	x := vec.NewDense(batch, in)
	rng.FillNormal(x.Data, 0, 1)
	y := vec.NewDense(batch, classes)
	for i := 0; i < batch; i++ {
		y.Set(i, rng.Intn(classes), 1)
	}
	return x, y
}

func TestMLPGradientCheckSoftmax(t *testing.T) {
	rng := vec.NewRNG(1)
	m, err := NewMLP(6, []int{5, 4}, 3, ActTanh, SoftmaxCrossEntropy{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 4, 6, 3)
	checkGradient(t, m, x, y, 1e-5)
}

func TestMLPGradientCheckReLU(t *testing.T) {
	rng := vec.NewRNG(2)
	m, err := NewMLP(5, []int{8}, 4, ActReLU, SoftmaxCrossEntropy{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 5, 5, 4)
	// ReLU kinks make finite differences slightly noisier.
	checkGradient(t, m, x, y, 1e-4)
}

func TestMLPGradientCheckSigmoidMSE(t *testing.T) {
	rng := vec.NewRNG(3)
	m, err := NewMLP(4, []int{6}, 2, ActSigmoid, MSE{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDense(3, 4)
	rng.FillNormal(x.Data, 0, 1)
	y := vec.NewDense(3, 2)
	rng.FillNormal(y.Data, 0, 1)
	checkGradient(t, m, x, y, 1e-5)
}

func TestLogisticGradientCheck(t *testing.T) {
	rng := vec.NewRNG(4)
	m, err := NewLogistic(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDense(6, 7)
	rng.FillNormal(x.Data, 0, 1)
	y := vec.NewDense(6, 1)
	for i := 0; i < 6; i++ {
		y.Set(i, 0, float64(rng.Intn(2)))
	}
	checkGradient(t, m, x, y, 1e-5)
}

func TestLinearRegressionGradientCheck(t *testing.T) {
	rng := vec.NewRNG(5)
	m, err := NewLinearRegression(4, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDense(5, 4)
	rng.FillNormal(x.Data, 0, 1)
	y := vec.NewDense(5, 2)
	rng.FillNormal(y.Data, 0, 2)
	checkGradient(t, m, x, y, 1e-6)
}

func TestParamsRoundTrip(t *testing.T) {
	m, err := NewMLP(3, []int{4}, 2, ActReLU, SoftmaxCrossEntropy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantDim := 3*4 + 4 + 4*2 + 2
	if m.Dim() != wantDim {
		t.Fatalf("Dim = %d, want %d", m.Dim(), wantDim)
	}
	p := m.Params(nil)
	for i := range p {
		p[i] = float64(i)
	}
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	got := m.Params(nil)
	if !vec.ApproxEqual(got, p, 0) {
		t.Error("Params/SetParams round trip failed")
	}
	// Wrong length rejected.
	if err := m.SetParams(p[:3]); !errors.Is(err, ErrShape) {
		t.Errorf("short SetParams: %v", err)
	}
}

func TestNetworkConstructionErrors(t *testing.T) {
	if _, err := NewNetwork(0, MSE{}, 1, NewDense(1, 1)); !errors.Is(err, ErrConfig) {
		t.Error("inDim=0 accepted")
	}
	if _, err := NewNetwork(3, nil, 1, NewDense(3, 1)); !errors.Is(err, ErrConfig) {
		t.Error("nil loss accepted")
	}
	if _, err := NewNetwork(3, MSE{}, 1); !errors.Is(err, ErrConfig) {
		t.Error("no layers accepted")
	}
	if _, err := NewNetwork(3, MSE{}, 1, NewDense(4, 1)); !errors.Is(err, ErrShape) {
		t.Error("shape chain mismatch accepted")
	}
	if _, err := NewMLP(3, []int{0}, 1, ActReLU, MSE{}, 1); !errors.Is(err, ErrConfig) {
		t.Error("zero hidden width accepted")
	}
	if _, err := NewNetwork(3, MSE{}, 1, NewActivation(ActKind(99))); !errors.Is(err, ErrConfig) {
		t.Error("unknown activation accepted")
	}
}

func TestDeterministicInitialization(t *testing.T) {
	m1, err := NewMLP(5, []int{4}, 3, ActReLU, SoftmaxCrossEntropy{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMLP(5, []int{4}, 3, ActReLU, SoftmaxCrossEntropy{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.ApproxEqual(m1.Params(nil), m2.Params(nil), 0) {
		t.Error("same seed produced different initializations")
	}
	m3, err := NewMLP(5, []int{4}, 3, ActReLU, SoftmaxCrossEntropy{}, 43)
	if err != nil {
		t.Fatal(err)
	}
	if vec.ApproxEqual(m1.Params(nil), m3.Params(nil), 1e-12) {
		t.Error("different seeds produced identical initializations")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, err := NewMLP(3, []int{4}, 2, ActTanh, SoftmaxCrossEntropy{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if c.Dim() != m.Dim() {
		t.Fatal("clone dimension mismatch")
	}
	if !vec.ApproxEqual(c.Params(nil), m.Params(nil), 0) {
		t.Fatal("clone parameters differ")
	}
	p := c.Params(nil)
	p[0] += 100
	if err := c.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if vec.ApproxEqual(c.Params(nil), m.Params(nil), 1e-9) {
		t.Error("clone shares parameter storage with original")
	}
}

// TestBindTilesTheVectors: bind lays every parameterized layer's
// weights then bias end to end over the network's params and grads, in
// construction order, each view capped at its own length so no layer
// can append into its neighbour.
func TestBindTilesTheVectors(t *testing.T) {
	m, err := NewConvNet(8, 8, 2, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	view := func(name string, flat, v []float64) {
		t.Helper()
		if len(v) == 0 || &v[0] != &flat[off] || cap(v) != len(v) {
			t.Fatalf("%s at offset %d: not a capped view of the flat vector (len %d, cap %d)", name, off, len(v), cap(v))
		}
	}
	for _, l := range m.layers {
		switch l := l.(type) {
		case *Dense:
			view("dense w", m.params, l.w.Data)
			view("dense gw", m.grads, l.gw.Data)
			off += len(l.w.Data)
			view("dense b", m.params, l.b)
			view("dense gb", m.grads, l.gb)
			off += len(l.b)
		case *Conv2D:
			view("conv w", m.params, l.w)
			view("conv gw", m.grads, l.gw)
			off += len(l.w)
			view("conv b", m.params, l.b)
			view("conv gb", m.grads, l.gb)
			off += len(l.b)
		}
	}
	if off != m.Dim() {
		t.Errorf("views cover %d of %d parameters", off, m.Dim())
	}
}

func TestPredictTransforms(t *testing.T) {
	m, err := NewSoftmaxClassifier(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDense(2, 3)
	rng := vec.NewRNG(1)
	rng.FillNormal(x.Data, 0, 1)
	out, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Rows; i++ {
		if math.Abs(vec.Sum(out.Row(i))-1) > 1e-9 {
			t.Errorf("softmax row %d does not sum to 1: %v", i, out.Row(i))
		}
		for _, p := range out.Row(i) {
			if p < 0 || p > 1 {
				t.Errorf("probability out of range: %v", p)
			}
		}
	}
}

func TestGradientBufferValidation(t *testing.T) {
	m, err := NewLinearRegression(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDense(1, 2)
	y := vec.NewDense(1, 1)
	if _, err := m.Gradient(make([]float64, 1), x, y); !errors.Is(err, ErrShape) {
		t.Errorf("short gradient buffer: %v", err)
	}
	if _, err := m.Gradient(make([]float64, m.Dim()), vec.NewDense(1, 3), y); !errors.Is(err, ErrShape) {
		t.Errorf("wrong input width: %v", err)
	}
}

func TestAccuracy(t *testing.T) {
	t.Run("multiclass", func(t *testing.T) {
		out := vec.NewDenseFrom(2, 3, []float64{0.7, 0.2, 0.1, 0.1, 0.1, 0.8})
		tgt := vec.NewDenseFrom(2, 3, []float64{1, 0, 0, 0, 1, 0})
		acc, err := Accuracy(out, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if acc != 0.5 {
			t.Errorf("accuracy = %v, want 0.5", acc)
		}
	})
	t.Run("binary", func(t *testing.T) {
		out := vec.NewDenseFrom(3, 1, []float64{0.9, 0.2, 0.6})
		tgt := vec.NewDenseFrom(3, 1, []float64{1, 0, 0})
		acc, err := Accuracy(out, tgt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(acc-2.0/3.0) > 1e-12 {
			t.Errorf("accuracy = %v", acc)
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		if _, err := Accuracy(vec.NewDense(1, 2), vec.NewDense(1, 3)); !errors.Is(err, ErrShape) {
			t.Error("mismatched shapes accepted")
		}
	})
	t.Run("empty batch", func(t *testing.T) {
		if _, err := Accuracy(vec.NewDense(0, 2), vec.NewDense(0, 2)); !errors.Is(err, ErrShape) {
			t.Error("empty batch accepted")
		}
	})
}

// End-to-end sanity: a small MLP fits a separable synthetic problem.
func TestMLPLearnsSeparableData(t *testing.T) {
	rng := vec.NewRNG(99)
	m, err := NewMLP(2, []int{16}, 2, ActReLU, SoftmaxCrossEntropy{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	x := vec.NewDense(batch, 2)
	y := vec.NewDense(batch, 2)
	makeBatch := func() {
		y.Zero()
		for i := 0; i < batch; i++ {
			cls := rng.Intn(2)
			cx := 2*float64(cls) - 1 // centers at ±1
			x.Set(i, 0, cx+0.3*rng.NormFloat64())
			x.Set(i, 1, cx+0.3*rng.NormFloat64())
			y.Set(i, cls, 1)
		}
	}
	grad := make([]float64, m.Dim())
	p := m.Params(nil)
	for step := 0; step < 300; step++ {
		makeBatch()
		if _, err := m.Gradient(grad, x, y); err != nil {
			t.Fatal(err)
		}
		vec.Axpy(-0.5, grad, p)
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	makeBatch()
	acc, err := EvalAccuracy(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("MLP accuracy %v after training, want ≥ 0.95", acc)
	}
}

// TestMixedBatchSizesAllocateNothing: a replica that alternates
// 16-row gradients with 300-row evaluation losses — a training round,
// then an eval batch — reuses its layers' buffers once it has seen
// both sizes, for every layer kind (dense, activation, convolution,
// pooling) and the loss gradient, and its gradient bits do not depend
// on the evaluation in between.
func TestMixedBatchSizesAllocateNothing(t *testing.T) {
	mlp, err := NewMLP(64, []int{32}, 10, ActReLU, SoftmaxCrossEntropy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := NewConvNet(8, 8, 3, 16, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(3)
	x16, y16 := randomBatch(rng, 16, 64, 10)
	x300, y300 := randomBatch(rng, 300, 64, 10)
	for name, net := range map[string]*Network{"mlp": mlp, "convnet": cnn} {
		want := make([]float64, net.Dim())
		if _, err := net.Gradient(want, x16, y16); err != nil {
			t.Fatal(err)
		}
		grad := make([]float64, len(want))
		step := func() {
			if _, err := net.Loss(x300, y300); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Gradient(grad, x16, y16); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if n := testing.AllocsPerRun(10, step); n != 0 {
			t.Errorf("%s: %v allocations per warm 300-row loss and 16-row gradient, want 0", name, n)
		}
		for i := range want {
			if math.Float64bits(grad[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: gradient %d after a 300-row loss = %v, alone %v", name, i, grad[i], want[i])
			}
		}
	}
}

// forwardCounter is a layer that counts the forward passes through it.
type forwardCounter struct {
	*Activation
	forwards int
}

func (c *forwardCounter) Forward(x *vec.Dense) *vec.Dense {
	c.forwards++
	return c.Activation.Forward(x)
}

// TestEvaluateOneForwardPass: Evaluate gives EvalAccuracy's accuracy
// and Loss's loss bit for bit, under each fused loss and plain MSE, from
// one forward pass and, once warm, no allocation; and the gradient
// after it is the gradient without it (the transform it applies in
// place does not leak into the next pass).
func TestEvaluateOneForwardPass(t *testing.T) {
	rng := vec.NewRNG(9)
	for _, c := range []struct {
		loss    Loss
		classes int
	}{{SoftmaxCrossEntropy{}, 10}, {SigmoidBCE{}, 1}, {MSE{}, 3}} {
		t.Run(c.loss.Name(), func(t *testing.T) {
			counter := &forwardCounter{Activation: NewActivation(ActReLU)}
			net, err := NewNetwork(64, c.loss, 1, NewDense(64, 32), counter, NewDense(32, c.classes))
			if err != nil {
				t.Fatal(err)
			}
			x300, y300 := randomBatch(rng, 300, 64, c.classes)
			x16, y16 := randomBatch(rng, 16, 64, c.classes)
			want := make([]float64, net.Dim())
			if _, err := net.Gradient(want, x16, y16); err != nil {
				t.Fatal(err)
			}
			wantAcc, err := EvalAccuracy(net, x300, y300)
			if err != nil {
				t.Fatal(err)
			}
			wantLoss, err := net.Loss(x300, y300)
			if err != nil {
				t.Fatal(err)
			}
			counter.forwards = 0
			acc, loss, err := Evaluate(net, x300, y300)
			if err != nil {
				t.Fatal(err)
			}
			if counter.forwards != 1 {
				t.Errorf("%d forward passes per evaluation, want 1", counter.forwards)
			}
			if math.Float64bits(acc) != math.Float64bits(wantAcc) || math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Errorf("Evaluate = (%v, %v), EvalAccuracy and Loss (%v, %v)", acc, loss, wantAcc, wantLoss)
			}
			if n := testing.AllocsPerRun(10, func() {
				if _, _, err := Evaluate(net, x300, y300); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%v allocations per warm evaluation, want 0", n)
			}
			grad := make([]float64, len(want))
			if _, err := net.Gradient(grad, x16, y16); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(grad[i]) != math.Float64bits(want[i]) {
					t.Fatalf("gradient %d after Evaluate = %v, before %v", i, grad[i], want[i])
				}
			}
		})
	}
}
