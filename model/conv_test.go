package model

import (
	"errors"
	"testing"

	"krum/internal/vec"
)

func TestConv2DKnownValues(t *testing.T) {
	// 1 channel, 3×3 input, 1 output channel, 2×2 kernel of ones,
	// bias 0: each output is the sum of its 2×2 window.
	conv, err := NewConv2D(1, 3, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, conv.ParamCount())
	for i := 0; i < 4; i++ {
		params[i] = 1
	}
	conv.bind(params, make([]float64, len(params)))
	x := vec.NewDenseFrom(1, 9, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	out := conv.Forward(x)
	want := []float64{12, 16, 24, 28}
	if !vec.ApproxEqual(out.Data, want, 1e-12) {
		t.Errorf("conv output = %v, want %v", out.Data, want)
	}
}

func TestConv2DBias(t *testing.T) {
	conv, err := NewConv2D(1, 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, conv.ParamCount())
	// zero weights, biases 3 and -1 (last two slots)
	params[len(params)-2] = 3
	params[len(params)-1] = -1
	conv.bind(params, make([]float64, len(params)))
	x := vec.NewDense(1, 4)
	out := conv.Forward(x)
	if !vec.ApproxEqual(out.Data, []float64{3, -1}, 0) {
		t.Errorf("bias output = %v", out.Data)
	}
}

func TestConv2DConstruction(t *testing.T) {
	if _, err := NewConv2D(0, 3, 3, 1, 2); !errors.Is(err, ErrConfig) {
		t.Error("zero channels accepted")
	}
	if _, err := NewConv2D(1, 3, 3, 1, 4); !errors.Is(err, ErrConfig) {
		t.Error("kernel larger than input accepted")
	}
	conv, err := NewConv2D(2, 4, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := conv.ParamCount(), 3*2*2*2+3; got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
	if _, err := conv.OutDim(5); !errors.Is(err, ErrShape) {
		t.Error("wrong inDim accepted")
	}
	od, err := conv.OutDim(2 * 4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if od != 3*3*3 {
		t.Errorf("OutDim = %d, want 27", od)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	pool, err := NewMaxPool2D(1, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := vec.NewDenseFrom(1, 16, []float64{
		1, 2, 0, 0,
		3, 4, 0, 5,
		0, 0, 9, 8,
		1, 0, 7, 6,
	})
	out := pool.Forward(x)
	if !vec.ApproxEqual(out.Data, []float64{4, 5, 1, 9}, 0) {
		t.Errorf("pool output = %v", out.Data)
	}
	dout := vec.NewDenseFrom(1, 4, []float64{10, 20, 30, 40})
	dx := pool.Backward(dout)
	// Gradients land exactly on the argmax positions.
	want := make([]float64, 16)
	want[5] = 10  // the 4
	want[7] = 20  // the 5
	want[12] = 30 // the 1
	want[10] = 40 // the 9
	if !vec.ApproxEqual(dx.Data, want, 0) {
		t.Errorf("pool dx = %v, want %v", dx.Data, want)
	}
}

func TestMaxPoolConstruction(t *testing.T) {
	if _, err := NewMaxPool2D(1, 5, 4, 2); !errors.Is(err, ErrConfig) {
		t.Error("non-divisible height accepted")
	}
	if _, err := NewMaxPool2D(0, 4, 4, 2); !errors.Is(err, ErrConfig) {
		t.Error("zero channels accepted")
	}
}

// The decisive correctness test: analytic gradients of a full ConvNet
// (conv → relu → pool → dense → relu → dense under softmax-xent) match
// finite differences.
func TestConvNetGradientCheck(t *testing.T) {
	m, err := NewConvNet(8, 8, 2, 6, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(21)
	x := vec.NewDense(3, 64)
	rng.FillNormal(x.Data, 0, 1)
	y := vec.NewDense(3, 3)
	for i := 0; i < 3; i++ {
		y.Set(i, rng.Intn(3), 1)
	}
	// ReLU + maxpool kinks: slightly relaxed tolerance.
	checkGradient(t, m, x, y, 2e-4)
}

// A convolution that is not the first layer runs its full Backward,
// input gradient included, and reads and writes its parameters through
// views into the middle of the network's flat vectors. Both must agree
// with finite differences, on the network and on its clone.
func TestConvBackwardGradientCheck(t *testing.T) {
	conv, err := NewConv2D(1, 4, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewNetwork(16, SoftmaxCrossEntropy{}, 17,
		NewDense(16, 16), NewActivation(ActTanh), conv, NewDense(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(vec.NewRNG(23), 3, 16, 2)
	checkGradient(t, m, x, y, 1e-5)
	checkGradient(t, m.Clone(), x, y, 1e-5)
}

func TestConvNetConstructionErrors(t *testing.T) {
	// 7×7 input: conv leaves 3×3 which is not poolable by 2.
	if _, err := NewConvNet(7, 7, 2, 4, 2, 1); !errors.Is(err, ErrConfig) {
		t.Error("non-poolable geometry accepted")
	}
}

func TestConvCloneIndependence(t *testing.T) {
	m, err := NewConvNet(8, 8, 2, 5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if !vec.ApproxEqual(c.Params(nil), m.Params(nil), 0) {
		t.Fatal("clone params differ")
	}
	p := c.Params(nil)
	p[0] += 5
	if err := c.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if vec.ApproxEqual(c.Params(nil), m.Params(nil), 1e-12) {
		t.Error("conv clone shares storage")
	}
}

// A ConvNet can fit a trivial two-class "bright quadrant" image task.
func TestConvNetLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	m, err := NewConvNet(8, 8, 3, 8, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRNG(31)
	const batch = 32
	x := vec.NewDense(batch, 64)
	y := vec.NewDense(batch, 2)
	makeBatch := func() {
		x.Zero()
		y.Zero()
		for i := 0; i < batch; i++ {
			cls := rng.Intn(2)
			// Class 0: bright top-left 4×4; class 1: bright bottom-right.
			for yy := 0; yy < 4; yy++ {
				for xx := 0; xx < 4; xx++ {
					var idx int
					if cls == 0 {
						idx = yy*8 + xx
					} else {
						idx = (yy+4)*8 + xx + 4
					}
					x.Set(i, idx, 1+0.2*rng.NormFloat64())
				}
			}
			y.Set(i, cls, 1)
		}
	}
	grad := make([]float64, m.Dim())
	p := m.Params(nil)
	for step := 0; step < 150; step++ {
		makeBatch()
		if _, err := m.Gradient(grad, x, y); err != nil {
			t.Fatal(err)
		}
		vec.Axpy(-0.3, grad, p)
		if err := m.SetParams(p); err != nil {
			t.Fatal(err)
		}
	}
	makeBatch()
	acc, err := EvalAccuracy(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("ConvNet accuracy %v, want ≥ 0.9", acc)
	}
}
