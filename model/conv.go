package model

import (
	"fmt"
	"math"

	"krum/internal/vec"
)

// Conv2D is a 2-D convolution layer over images flattened row-major as
// channel-major planes (sample row = [c0 plane, c1 plane, ...], each
// plane H×W). Stride is 1 and padding is 0; the experiment networks are
// small enough that those generalizations would be dead weight.
// Construct with NewConv2D.
type Conv2D struct {
	InC, InH, InW int
	OutC, K       int

	outH, outW int

	w  []float64 // OutC × InC × K × K
	b  []float64 // OutC
	gw []float64
	gb []float64

	lastX  *vec.Dense
	outBuf *vec.Dense
	dxBuf  *vec.Dense
}

// NewConv2D returns a stride-1, zero-padding convolution layer.
func NewConv2D(inC, inH, inW, outC, k int) (*Conv2D, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || outC <= 0 || k <= 0 {
		return nil, fmt.Errorf("conv dims (%d,%d,%d,%d,%d) must be positive: %w", inC, inH, inW, outC, k, ErrConfig)
	}
	if k > inH || k > inW {
		return nil, fmt.Errorf("kernel %d exceeds input %dx%d: %w", k, inH, inW, ErrConfig)
	}
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW, OutC: outC, K: k,
		outH: inH - k + 1,
		outW: inW - k + 1,
	}
	c.w = make([]float64, outC*inC*k*k)
	c.b = make([]float64, outC)
	c.gw = make([]float64, len(c.w))
	c.gb = make([]float64, outC)
	return c, nil
}

var (
	_ Layer      = (*Conv2D)(nil)
	_ paramLayer = (*Conv2D)(nil)
)

// OutDim implements Layer.
func (c *Conv2D) OutDim(inDim int) (int, error) {
	if inDim != c.InC*c.InH*c.InW {
		return 0, fmt.Errorf("conv expects %d inputs, got %d: %w", c.InC*c.InH*c.InW, inDim, ErrShape)
	}
	return c.OutC * c.outH * c.outW, nil
}

// wAt returns the index of weight (oc, ic, i, j).
func (c *Conv2D) wAt(oc, ic, i, j int) int {
	return ((oc*c.InC+ic)*c.K+i)*c.K + j
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *vec.Dense) *vec.Dense {
	c.lastX = x
	outWidth := c.OutC * c.outH * c.outW
	if c.outBuf == nil || c.outBuf.Rows != x.Rows {
		c.outBuf = vec.NewDense(x.Rows, outWidth)
	}
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := c.outBuf.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.b[oc]
			for oy := 0; oy < c.outH; oy++ {
				for ox := 0; ox < c.outW; ox++ {
					acc := bias
					for ic := 0; ic < c.InC; ic++ {
						plane := in[ic*c.InH*c.InW:]
						for ky := 0; ky < c.K; ky++ {
							rowOff := (oy + ky) * c.InW
							wOff := c.wAt(oc, ic, ky, 0)
							for kx := 0; kx < c.K; kx++ {
								acc += plane[rowOff+ox+kx] * c.w[wOff+kx]
							}
						}
					}
					out[(oc*c.outH+oy)*c.outW+ox] = acc
				}
			}
		}
	}
	return c.outBuf
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *vec.Dense) *vec.Dense {
	if c.dxBuf == nil || c.dxBuf.Rows != dout.Rows {
		c.dxBuf = vec.NewDense(dout.Rows, c.InC*c.InH*c.InW)
	}
	c.dxBuf.Zero()
	c.backward(dout, c.dxBuf)
	return c.dxBuf
}

// backwardParams implements paramLayer.
func (c *Conv2D) backwardParams(dout *vec.Dense) { c.backward(dout, nil) }

// backward accumulates the weight and bias gradients and, when dxBuf is
// non-nil, adds the input gradient into it.
func (c *Conv2D) backward(dout, dxBuf *vec.Dense) {
	vec.Zero(c.gw)
	vec.Zero(c.gb)
	for s := 0; s < dout.Rows; s++ {
		in := c.lastX.Row(s)
		dO := dout.Row(s)
		var dx []float64
		if dxBuf != nil {
			dx = dxBuf.Row(s)
		}
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
							}
							if dx != nil {
								for kx := 0; kx < c.K; kx++ {
									dx[rowOff+kx] += c.w[wOff+kx] * g
								}
							}
						}
					}
				}
			}
		}
	}
}

// ParamCount implements Layer.
func (c *Conv2D) ParamCount() int { return len(c.w) + len(c.b) }

// ReadParams implements Layer.
func (c *Conv2D) ReadParams(dst []float64) {
	copy(dst, c.w)
	copy(dst[len(c.w):], c.b)
}

// WriteParams implements Layer.
func (c *Conv2D) WriteParams(src []float64) {
	copy(c.w, src)
	copy(c.b, src[len(c.w):])
}

// ReadGrads implements Layer.
func (c *Conv2D) ReadGrads(dst []float64) {
	copy(dst, c.gw)
	copy(dst[len(c.gw):], c.gb)
}

// CloneLayer implements Layer.
func (c *Conv2D) CloneLayer() Layer {
	cp, err := NewConv2D(c.InC, c.InH, c.InW, c.OutC, c.K)
	if err != nil {
		// Construction already succeeded once with these dimensions.
		panic(fmt.Sprintf("model: cloning valid Conv2D failed: %v", err))
	}
	copy(cp.w, c.w)
	copy(cp.b, c.b)
	return cp
}

// initWeights applies fan-in scaled Gaussian initialization.
func (c *Conv2D) initWeights(rng *vec.RNG, gain float64) {
	fanIn := float64(c.InC * c.K * c.K)
	rng.FillNormal(c.w, 0, gain/math.Sqrt(fanIn))
	vec.Zero(c.b)
}

// MaxPool2D is a non-overlapping P×P max-pooling layer over
// channel-major planes. Construct with NewMaxPool2D; input height and
// width must be divisible by P.
type MaxPool2D struct {
	C, H, W, P int
	outH, outW int

	argmax []int // per forward: flat input index of each output's max
	outBuf *vec.Dense
	dxBuf  *vec.Dense
}

// NewMaxPool2D returns a pooling layer.
func NewMaxPool2D(c, h, w, p int) (*MaxPool2D, error) {
	if c <= 0 || h <= 0 || w <= 0 || p <= 0 {
		return nil, fmt.Errorf("pool dims (%d,%d,%d,%d) must be positive: %w", c, h, w, p, ErrConfig)
	}
	if h%p != 0 || w%p != 0 {
		return nil, fmt.Errorf("pool %d does not divide %dx%d: %w", p, h, w, ErrConfig)
	}
	return &MaxPool2D{C: c, H: h, W: w, P: p, outH: h / p, outW: w / p}, nil
}

var _ Layer = (*MaxPool2D)(nil)

// OutDim implements Layer.
func (m *MaxPool2D) OutDim(inDim int) (int, error) {
	if inDim != m.C*m.H*m.W {
		return 0, fmt.Errorf("pool expects %d inputs, got %d: %w", m.C*m.H*m.W, inDim, ErrShape)
	}
	return m.C * m.outH * m.outW, nil
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *vec.Dense) *vec.Dense {
	outWidth := m.C * m.outH * m.outW
	if m.outBuf == nil || m.outBuf.Rows != x.Rows {
		m.outBuf = vec.NewDense(x.Rows, outWidth)
		m.argmax = make([]int, x.Rows*outWidth)
	}
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := m.outBuf.Row(s)
		am := m.argmax[s*outWidth : (s+1)*outWidth]
		for c := 0; c < m.C; c++ {
			plane := c * m.H * m.W
			for oy := 0; oy < m.outH; oy++ {
				for ox := 0; ox < m.outW; ox++ {
					bestIdx := plane + (oy*m.P)*m.W + ox*m.P
					best := in[bestIdx]
					for py := 0; py < m.P; py++ {
						rowOff := plane + (oy*m.P+py)*m.W + ox*m.P
						for px := 0; px < m.P; px++ {
							if v := in[rowOff+px]; v > best {
								best = v
								bestIdx = rowOff + px
							}
						}
					}
					oIdx := (c*m.outH+oy)*m.outW + ox
					out[oIdx] = best
					am[oIdx] = bestIdx
				}
			}
		}
	}
	return m.outBuf
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *vec.Dense) *vec.Dense {
	if m.dxBuf == nil || m.dxBuf.Rows != dout.Rows {
		m.dxBuf = vec.NewDense(dout.Rows, m.C*m.H*m.W)
	}
	m.dxBuf.Zero()
	outWidth := dout.Cols
	for s := 0; s < dout.Rows; s++ {
		dO := dout.Row(s)
		dx := m.dxBuf.Row(s)
		am := m.argmax[s*outWidth : (s+1)*outWidth]
		for i, g := range dO {
			dx[am[i]] += g
		}
	}
	return m.dxBuf
}

// ParamCount implements Layer.
func (m *MaxPool2D) ParamCount() int { return 0 }

// ReadParams implements Layer.
func (m *MaxPool2D) ReadParams([]float64) {}

// WriteParams implements Layer.
func (m *MaxPool2D) WriteParams([]float64) {}

// ReadGrads implements Layer.
func (m *MaxPool2D) ReadGrads([]float64) {}

// CloneLayer implements Layer.
func (m *MaxPool2D) CloneLayer() Layer {
	cp, err := NewMaxPool2D(m.C, m.H, m.W, m.P)
	if err != nil {
		panic(fmt.Sprintf("model: cloning valid MaxPool2D failed: %v", err))
	}
	return cp
}

// NewConvNet builds the small convolutional classifier used by the
// image experiments: conv(K=5, outC) → ReLU → maxpool(2) → dense →
// ReLU → dense(classes), under softmax cross-entropy. The input is a
// single-channel h×w image per row.
func NewConvNet(h, w, convChannels, hiddenDense, classes int, seed uint64) (*Network, error) {
	conv, err := NewConv2D(1, h, w, convChannels, 5)
	if err != nil {
		return nil, err
	}
	ph, pw := h-4, w-4 // after 5×5 valid conv
	if ph%2 != 0 || pw%2 != 0 {
		return nil, fmt.Errorf("conv output %dx%d not poolable by 2: %w", ph, pw, ErrConfig)
	}
	pool, err := NewMaxPool2D(convChannels, ph, pw, 2)
	if err != nil {
		return nil, err
	}
	flat := convChannels * (ph / 2) * (pw / 2)
	return NewNetwork(h*w, SoftmaxCrossEntropy{}, seed,
		conv,
		NewActivation(ActReLU),
		pool,
		NewDense(flat, hiddenDense),
		NewActivation(ActReLU),
		NewDense(hiddenDense, classes),
	)
}
