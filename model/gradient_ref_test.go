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
// input gradient included — on every layer down to the first.
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
	for i, l := range n.layers {
		if c := l.ParamCount(); c > 0 {
			l.ReadGrads(dst[n.offsets[i] : n.offsets[i]+c])
		}
	}
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
				x, y := randomBatch(rng, batch, n.inDim, n.outDim)
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

// TestGradientBitsTierIndependent: distances differ between order
// families, the gradient path must not. Network.Gradient at the two
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
