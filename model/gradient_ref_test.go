package model

import (
	"math"
	"testing"

	"krum/data"
	"krum/internal/vec"
)

// conv2DBackwardReference is Conv2D.Backward as it stood before the
// input gradient became optional, kept verbatim: weight and input
// gradients accumulated side by side in one inner loop.
func conv2DBackwardReference(c *Conv2D, dout *vec.Dense) *vec.Dense {
	if c.dxBuf == nil || c.dxBuf.Rows != dout.Rows {
		c.dxBuf = vec.NewDense(dout.Rows, c.InC*c.InH*c.InW)
	}
	vec.Zero(c.gw)
	vec.Zero(c.gb)
	c.dxBuf.Zero()
	for s := 0; s < dout.Rows; s++ {
		in := c.lastX.Row(s)
		dO := dout.Row(s)
		dx := c.dxBuf.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < c.outH; oy++ {
				for ox := 0; ox < c.outW; ox++ {
					g := dO[(oc*c.outH+oy)*c.outW+ox]
					if g == 0 {
						continue
					}
					c.gb[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						planeOff := ic * c.InH * c.InW
						for ky := 0; ky < c.K; ky++ {
							rowOff := planeOff + (oy+ky)*c.InW + ox
							wOff := c.wAt(oc, ic, ky, 0)
							for kx := 0; kx < c.K; kx++ {
								c.gw[wOff+kx] += in[rowOff+kx] * g
								dx[rowOff+kx] += c.w[wOff+kx] * g
							}
						}
					}
				}
			}
		}
	}
	return c.dxBuf
}

// gradientReference is Network.Gradient as it stood before the
// first-layer skip, kept verbatim except that Conv2D layers go through
// conv2DBackwardReference: a fresh dout per call and a full Backward —
// input gradient included — on every layer down to the first. The
// layers' gradients are read from the network's flat grads, which they
// write through their views.
func gradientReference(n *Network, dst []float64, x, y *vec.Dense) (float64, error) {
	out, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	dout := vec.NewDense(out.Rows, out.Cols)
	loss, err := n.loss.Grad(dout, out, y)
	if err != nil {
		return 0, err
	}
	cur := dout
	for i := len(n.layers) - 1; i >= 0; i-- {
		if c, ok := n.layers[i].(*Conv2D); ok {
			cur = conv2DBackwardReference(c, cur)
		} else {
			cur = n.layers[i].Backward(cur)
		}
	}
	copy(dst, n.grads)
	return loss, nil
}

// TestGradientMatchesReference: skipping the first layer's input
// gradient (and splitting Conv2D's inner loop to make that possible)
// changes no bit of the flat gradient or the loss, on a model whose
// first layer is dense, one whose first layer is a convolution, the
// single-layer models where the first layer is also the last, and a
// network led by a parameter-free layer, which takes the ordinary
// Backward. Each model is evaluated twice on different batches so the
// reused dout buffer is exercised with stale contents.
func TestGradientMatchesReference(t *testing.T) {
	mlp, err := NewMLP(12, []int{9, 7}, 4, ActReLU, SoftmaxCrossEntropy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConvNet(8, 8, 3, 6, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	softmax, err := NewSoftmaxClassifier(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	logistic, err := NewLogistic(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	regression, err := NewLinearRegression(7, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	actFirst, err := NewNetwork(6, MSE{}, 6, NewActivation(ActTanh), NewDense(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{
		"mlp": mlp, "conv": conv, "softmax": softmax, "logistic": logistic,
		"regression": regression, "activation-first": actFirst,
	} {
		t.Run(name, func(t *testing.T) {
			ref := n.Clone().(*Network)
			rng := vec.NewRNG(11)
			for _, batch := range []int{5, 5, 3} {
				x, y := randomBatch(rng, batch, n.inDim, n.layers[len(n.layers)-1].(*Dense).Out)
				// ReLU-like sparsity in the input, as image pixels have.
				for i := range x.Data {
					if rng.Intn(3) == 0 {
						x.Data[i] = 0
					}
				}
				got, want := make([]float64, n.Dim()), make([]float64, n.Dim())
				gotLoss, err := n.Gradient(got, x, y)
				if err != nil {
					t.Fatal(err)
				}
				wantLoss, err := gradientReference(ref, want, x, y)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("loss %v, reference %v", gotLoss, wantLoss)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("batch %d: gradient[%d] = %x, reference %x",
							batch, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// TestGradientBitsTierIndependent: like the distances, the gradient
// path may not depend on the tier. Network.Gradient at the two
// shapes the tracked workloads train — the mnist MLP (batch 16,
// 256 → 48 → 10; rows wide enough for the AVX2 row kernels) and the gmm
// softmax (batch 8, 6 → 3; never leaves the Go loops) — returns the same
// loss and gradient bits under every kernel tier.
func TestGradientBitsTierIndependent(t *testing.T) {
	mnist, err := data.NewSyntheticMNIST(16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLP(mnist.Dim(), []int{48}, 10, ActReLU, SoftmaxCrossEntropy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmm, err := data.NewGaussianMixture(3, 6, 4, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	softmax, err := NewSoftmaxClassifier(6, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		m     Model
		ds    data.Dataset
		batch int
	}{{"mnist-16x256x48x10", mlp, mnist, 16}, {"gmm-8x6x3", softmax, gmm, 8}} {
		t.Run(c.name, func(t *testing.T) {
			rng := vec.NewRNG(5)
			for round := 0; round < 3; round++ {
				x, y, err := data.NewBatch(c.ds, rng, c.batch)
				if err != nil {
					t.Fatal(err)
				}
				var first vec.Tier
				var want []float64
				var wantLoss float64
				for _, tier := range vec.AvailableTiers() {
					restore, err := vec.SetKernelTier(tier)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]float64, c.m.Dim())
					loss, err := c.m.Gradient(got, x, y)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						first, want, wantLoss = tier, got, loss
						continue
					}
					if math.Float64bits(loss) != math.Float64bits(wantLoss) {
						t.Fatalf("round %d: loss %v under %v, %v under %v", round, loss, tier, wantLoss, first)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("round %d: gradient[%d] = %x under %v, %x under %v",
								round, i, math.Float64bits(got[i]), tier, math.Float64bits(want[i]), first)
						}
					}
				}
			}
		})
	}
}

// reluForwardReference and reluBackwardReference are Activation's ReLU
// loops as they stood before they became bit masks, kept verbatim: a
// branch on v > 0.
func reluForwardReference(x *vec.Dense) []float64 {
	out := make([]float64, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

func reluBackwardReference(lastIn, dout *vec.Dense) []float64 {
	dx := make([]float64, len(dout.Data))
	for i, v := range lastIn.Data {
		if v > 0 {
			dx[i] = dout.Data[i]
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// TestReLUBitsPinned holds ReLU's Forward and Backward to the branchy
// loops bit for bit under every kernel tier, on every pairing of an
// input from ±x, ±0, ±Inf, ±subnormals and NaNs of two payloads (both
// signs) with an upstream gradient from the same set: x > 0 passes x,
// or dout's exact bits, NaN payloads included; everything else, NaN
// and −0 among it, gives +0.
func TestReLUBitsPinned(t *testing.T) {
	specials := []float64{
		1.5, -1.5, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308,
		math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000abc),
		math.Float64frombits(0x7ff000000000dead), math.Float64frombits(0xfff400000000dead),
	}
	n := len(specials)
	x, dout := vec.NewDense(n, n), vec.NewDense(n, n)
	for i, v := range specials {
		for j, g := range specials {
			x.Set(i, j, v)
			dout.Set(i, j, g)
		}
	}
	wantOut, wantDx := reluForwardReference(x), reluBackwardReference(x, dout)
	for _, tier := range vec.AvailableTiers() {
		restore, err := vec.SetKernelTier(tier)
		if err != nil {
			t.Fatal(err)
		}
		a := NewActivation(ActReLU)
		out := a.Forward(x).Data
		dx := a.Backward(dout).Data
		restore()
		for i := range wantOut {
			if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
				t.Errorf("%v: Forward(%x) = %x, branchy loop %x", tier, math.Float64bits(x.Data[i]), math.Float64bits(out[i]), math.Float64bits(wantOut[i]))
			}
			if math.Float64bits(dx[i]) != math.Float64bits(wantDx[i]) {
				t.Errorf("%v: Backward(in %x, dout %x) = %x, branchy loop %x", tier, math.Float64bits(x.Data[i]), math.Float64bits(dout.Data[i]), math.Float64bits(dx[i]), math.Float64bits(wantDx[i]))
			}
		}
	}
}
