package model

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// Network is a feed-forward composition of Layers trained against a
// Loss. It implements Model over two flat vectors it owns, params and
// grads; each parameterized layer holds views into both (see bind).
// Construct with NewNetwork or the NewMLP / NewConvNet helpers.
type Network struct {
	inDim  int
	layers []Layer
	loss   Loss
	params []float64  // x ∈ ℝ^d: every layer's weights then bias, in construction order
	grads  []float64  // the last Gradient's dL/dx, laid out as params
	dout   *vec.Dense // Gradient's dL/doutputs, reused across calls
}

var _ Model = (*Network)(nil)

// NewNetwork assembles the layers, validates the shape chain starting
// from inDim, and initializes weights deterministically from seed
// (He-style fan-in scaling, gain √2, which suits the ReLU networks of
// the experiments and is harmless for the others).
func NewNetwork(inDim int, loss Loss, seed uint64, layers ...Layer) (*Network, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("input dimension %d: %w", inDim, ErrConfig)
	}
	if loss == nil {
		return nil, fmt.Errorf("nil loss: %w", ErrConfig)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("no layers: %w", ErrConfig)
	}
	cur := inDim
	for i, l := range layers {
		out, err := l.OutDim(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		cur = out
	}
	n := &Network{inDim: inDim, layers: layers, loss: loss}
	rng := vec.NewRNG(seed)
	for _, p := range n.bind() {
		p.initWeights(rng.Split(), math.Sqrt2)
	}
	return n, nil
}

// bind allocates params and grads and hands each parameterized layer
// its views into them, in construction order, each capped so that no
// layer can grow into its neighbour. It is the one place that decides
// the flat layout, and it returns the parameterized layers in it.
func (n *Network) bind() []paramLayer {
	var ps []paramLayer
	d := 0
	for _, l := range n.layers {
		if p, ok := l.(paramLayer); ok {
			ps = append(ps, p)
			d += p.ParamCount()
		}
	}
	n.params, n.grads = make([]float64, d), make([]float64, d)
	off := 0
	for _, p := range ps {
		end := off + p.ParamCount()
		p.bind(n.params[off:end:end], n.grads[off:end:end])
		off = end
	}
	return ps
}

// NewMLP builds inDim → hidden[0] → ... → hidden[k-1] → outDim with the
// given activation between dense layers and the given loss on the raw
// output (fused softmax/sigmoid losses receive logits).
func NewMLP(inDim int, hidden []int, outDim int, act ActKind, loss Loss, seed uint64) (*Network, error) {
	var layers []Layer
	cur := inDim
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("hidden width %d: %w", h, ErrConfig)
		}
		layers = append(layers, NewDense(cur, h), NewActivation(act))
		cur = h
	}
	layers = append(layers, NewDense(cur, outDim))
	return NewNetwork(inDim, loss, seed, layers...)
}

// Dim implements Model.
func (n *Network) Dim() int { return len(n.params) }

// Params implements Model.
func (n *Network) Params(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(n.params))
	}
	copy(dst, n.params)
	return dst
}

// SetParams implements Model.
func (n *Network) SetParams(p []float64) error {
	if len(p) != len(n.params) {
		return fmt.Errorf("got %d params, want %d: %w", len(p), len(n.params), ErrShape)
	}
	copy(n.params, p)
	return nil
}

// forward runs the batch through every layer and returns raw outputs
// (aliasing the last layer's buffer).
func (n *Network) forward(x *vec.Dense) (*vec.Dense, error) {
	if x.Cols != n.inDim {
		return nil, fmt.Errorf("input width %d, want %d: %w", x.Cols, n.inDim, ErrShape)
	}
	cur := x
	for _, l := range n.layers {
		cur = l.Forward(cur)
	}
	return cur, nil
}

// Gradient implements Model.
func (n *Network) Gradient(dst []float64, x, y *vec.Dense) (float64, error) {
	if len(dst) != len(n.grads) {
		return 0, fmt.Errorf("gradient buffer %d, want %d: %w", len(dst), len(n.grads), ErrShape)
	}
	out, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	n.dout = reshape(n.dout, out.Rows, out.Cols)
	loss, err := n.loss.Grad(n.dout, out, y)
	if err != nil {
		return 0, err
	}
	cur := n.dout
	for i := len(n.layers) - 1; i > 0; i-- {
		cur = n.layers[i].Backward(cur)
	}
	if first, ok := n.layers[0].(paramLayer); ok {
		first.backwardParams(cur)
	} else {
		n.layers[0].Backward(cur)
	}
	copy(dst, n.grads)
	return loss, nil
}

// Loss implements Model.
func (n *Network) Loss(x, y *vec.Dense) (float64, error) {
	out, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	return n.loss.Value(out, y)
}

// Predict implements Model: raw outputs mapped through the loss
// transform (softmax/sigmoid probabilities, identity for MSE). The
// returned matrix is freshly allocated and owned by the caller.
func (n *Network) Predict(x *vec.Dense) (*vec.Dense, error) {
	out, err := n.forward(x)
	if err != nil {
		return nil, err
	}
	cp := out.Clone()
	n.loss.Transform(cp)
	return cp, nil
}

// evaluate is Evaluate on one forward pass: the loss from the raw
// outputs, then the loss transform applied to them in place — they are
// the last layer's own buffer, which the next forward pass overwrites —
// and the accuracy, as Predict's copy would give it.
func (n *Network) evaluate(x, y *vec.Dense) (acc, loss float64, err error) {
	out, err := n.forward(x)
	if err != nil {
		return 0, 0, err
	}
	if loss, err = n.loss.Value(out, y); err != nil {
		return 0, 0, err
	}
	n.loss.Transform(out)
	if acc, err = Accuracy(out, y); err != nil {
		return 0, 0, err
	}
	return acc, loss, nil
}

// Clone implements Model.
func (n *Network) Clone() Model {
	c := &Network{inDim: n.inDim, layers: make([]Layer, len(n.layers)), loss: n.loss}
	for i, l := range n.layers {
		c.layers[i] = l.CloneLayer()
	}
	c.bind()
	copy(c.params, n.params)
	return c
}
