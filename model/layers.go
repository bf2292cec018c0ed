package model

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// Layer is one stage of a feed-forward network. Forward caches whatever
// Backward needs; Backward consumes the upstream gradient, writes any
// parameter gradients into the layer's view of the network's grads, and
// returns the gradient with respect to its input. Layers are stateful
// and owned by exactly one Network.
type Layer interface {
	// OutDim returns the per-sample output width given the input width,
	// or an error if the layer cannot accept it.
	OutDim(inDim int) (int, error)
	// Forward computes the layer output for a batch (rows = samples).
	Forward(x *vec.Dense) *vec.Dense
	// Backward propagates: given dL/dout it returns dL/din.
	Backward(dout *vec.Dense) *vec.Dense
	// CloneLayer returns a layer of the same shape that shares no
	// state; a parameterized clone is unbound until its Network binds it.
	CloneLayer() Layer
}

// paramLayer is a Layer with trainable parameters. It owns none of
// them: Network.bind hands it views into the network's flat parameter
// and gradient vectors, weights first, then bias.
type paramLayer interface {
	// ParamCount returns the number of trainable scalars.
	ParamCount() int
	// bind points the weights and bias at params and their gradients at
	// grads, both of length ParamCount.
	bind(params, grads []float64)
	// initWeights fills the weights with fan-in scaled Gaussians; the
	// bias keeps the zero it was bound with.
	initWeights(rng *vec.RNG, gain float64)
	// backwardParams does what Backward does to the parameter
	// gradients, bit for bit, and nothing else. Network.Gradient uses
	// it on the first layer, whose input gradient nothing reads: for a
	// Dense layer that is the whole dout·Wᵀ product, a third of a
	// linear model's backward pass.
	backwardParams(dout *vec.Dense)
}

// reshape returns buf as a rows×cols matrix: its own backing array,
// resliced, when that has room, and a new one only when it has not.
// Its contents are unspecified; every caller overwrites all of them. A
// replica alternating batch sizes — training batches, then a larger
// evaluation batch — stops allocating once it has seen the largest.
func reshape(buf *vec.Dense, rows, cols int) *vec.Dense {
	if buf == nil || cap(buf.Data) < rows*cols {
		return vec.NewDense(rows, cols)
	}
	buf.Rows, buf.Cols, buf.Data = rows, cols, buf.Data[:rows*cols]
	return buf
}

// Dense is the fully connected layer y = x·W + b with W (in×out) and
// bias b (out). Construct with NewDense; the owning Network binds and
// initializes the weights with He/Xavier scaling.
type Dense struct {
	In, Out int
	w       *vec.Dense // In × Out
	b       []float64  // Out
	gw      *vec.Dense
	gb      []float64
	lastX   *vec.Dense
	dxBuf   *vec.Dense
	outBuf  *vec.Dense
}

// NewDense returns an unbound fully connected layer; the owning Network
// binds and initializes the weights.
func NewDense(in, out int) *Dense { return &Dense{In: in, Out: out} }

var (
	_ Layer      = (*Dense)(nil)
	_ paramLayer = (*Dense)(nil)
)

// OutDim implements Layer.
func (l *Dense) OutDim(inDim int) (int, error) {
	if inDim != l.In {
		return 0, fmt.Errorf("dense layer expects %d inputs, got %d: %w", l.In, inDim, ErrShape)
	}
	return l.Out, nil
}

// Forward implements Layer.
func (l *Dense) Forward(x *vec.Dense) *vec.Dense {
	l.lastX = x
	l.outBuf = reshape(l.outBuf, x.Rows, l.Out)
	vec.MatMul(l.outBuf, x, l.w)
	vec.AddRowVector(l.outBuf, l.b)
	return l.outBuf
}

// Backward implements Layer.
func (l *Dense) Backward(dout *vec.Dense) *vec.Dense {
	// dW = xᵀ·dout, db = Σ rows(dout), dx = dout·Wᵀ.
	l.backwardParams(dout)
	l.dxBuf = reshape(l.dxBuf, dout.Rows, l.In)
	vec.MatMulABT(l.dxBuf, dout, l.w)
	return l.dxBuf
}

// backwardParams implements paramLayer.
func (l *Dense) backwardParams(dout *vec.Dense) {
	vec.MatMulATB(l.gw, l.lastX, dout)
	vec.SumRows(l.gb, dout)
}

// ParamCount implements paramLayer.
func (l *Dense) ParamCount() int { return l.In*l.Out + l.Out }

// bind implements paramLayer.
func (l *Dense) bind(params, grads []float64) {
	nw := l.In * l.Out
	l.w, l.b = vec.NewDenseFrom(l.In, l.Out, params[:nw:nw]), params[nw:]
	l.gw, l.gb = vec.NewDenseFrom(l.In, l.Out, grads[:nw:nw]), grads[nw:]
}

// CloneLayer implements Layer.
func (l *Dense) CloneLayer() Layer { return NewDense(l.In, l.Out) }

// initWeights implements paramLayer.
func (l *Dense) initWeights(rng *vec.RNG, gain float64) {
	rng.FillNormal(l.w.Data, 0, gain/math.Sqrt(float64(l.In)))
}

// Activation is a parameter-free element-wise layer. Kind selects the
// nonlinearity.
type Activation struct {
	Kind   ActKind
	lastIn *vec.Dense
	outBuf *vec.Dense
	dxBuf  *vec.Dense
}

// ActKind enumerates supported element-wise nonlinearities.
type ActKind int

// Supported activation kinds. Start at 1 so the zero value is invalid
// (per the style guide's "start enums at one").
const (
	// ActReLU is max(0, x).
	ActReLU ActKind = iota + 1
	// ActSigmoid is 1/(1+e^{-x}).
	ActSigmoid
	// ActTanh is tanh(x).
	ActTanh
)

// String returns the lower-case name of the activation.
func (k ActKind) String() string {
	switch k {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return fmt.Sprintf("actkind(%d)", int(k))
	}
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind ActKind) *Activation { return &Activation{Kind: kind} }

var _ Layer = (*Activation)(nil)

// OutDim implements Layer.
func (a *Activation) OutDim(inDim int) (int, error) {
	switch a.Kind {
	case ActReLU, ActSigmoid, ActTanh:
		return inDim, nil
	default:
		return 0, fmt.Errorf("unknown activation %d: %w", a.Kind, ErrConfig)
	}
}

// Forward implements Layer.
func (a *Activation) Forward(x *vec.Dense) *vec.Dense {
	a.lastIn = x
	a.outBuf = reshape(a.outBuf, x.Rows, x.Cols)
	out := a.outBuf.Data
	switch a.Kind {
	case ActReLU:
		for i, v := range x.Data {
			out[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(v))
		}
	case ActSigmoid:
		for i, v := range x.Data {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case ActTanh:
		for i, v := range x.Data {
			out[i] = math.Tanh(v)
		}
	}
	return a.outBuf
}

// Backward implements Layer.
func (a *Activation) Backward(dout *vec.Dense) *vec.Dense {
	a.dxBuf = reshape(a.dxBuf, dout.Rows, dout.Cols)
	dx := a.dxBuf.Data
	switch a.Kind {
	case ActReLU:
		din := dout.Data[:len(dx)]
		for i, v := range a.lastIn.Data[:len(dx)] {
			dx[i] = math.Float64frombits(math.Float64bits(din[i]) & positiveMask(v))
		}
	case ActSigmoid:
		for i := range dx {
			s := a.outBuf.Data[i]
			dx[i] = dout.Data[i] * s * (1 - s)
		}
	case ActTanh:
		for i := range dx {
			th := a.outBuf.Data[i]
			dx[i] = dout.Data[i] * (1 - th*th)
		}
	}
	return a.dxBuf
}

// positiveMask is all ones when v > 0 and zero otherwise, NaN and −0
// included: ANDed into a float's bits it keeps them or gives +0. ReLU
// takes its forward value and backward gradient through it instead of
// a branch, which would mispredict on activations that are about half
// zeros; the compiler makes the mask a conditional move.
func positiveMask(v float64) uint64 {
	var m uint64
	if v > 0 {
		m = 1<<64 - 1
	}
	return m
}

// CloneLayer implements Layer.
func (a *Activation) CloneLayer() Layer { return NewActivation(a.Kind) }
