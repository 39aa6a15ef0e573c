// Package nn implements the neural-network layers used by the
// recommendation models in this repository: fully connected layers (with an
// optional fused ReLU), the sigmoid, multi-layer perceptrons, the DLRM
// pairwise dot-product interaction, a factorization-machine second-order
// term (DeepFM), and the explicit cross layer (Deep&Cross), with hand-written
// backpropagation.
//
// All layers operate on batch-major matrices (rows are examples) and cache
// whatever they need from the forward pass, so the calling convention is
// strictly Forward-then-Backward per step, which matches the synchronous
// training loop Bagpipe preserves.
package nn

import (
	"fmt"
	"math"

	"bagpipe/internal/tensor"
)

// Param is a named dense parameter tensor and its gradient accumulator.
type Param struct {
	Name  string
	Value []float32
	Grad  []float32
}

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the layer output for input x (batch-major). The
	// returned matrix is owned by the layer and valid until the next call.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward consumes the gradient of the loss w.r.t. the layer output
	// and returns the gradient w.r.t. the layer input, accumulating
	// parameter gradients along the way.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters (may be empty).
	Params() []Param
}

// Linear is a fully connected layer: out = x·W + b with W of shape in×out,
// or, built by NewMLP where a ReLU follows, out = relu(x·W + b) with the
// clamp fused into the product (tensor.MatMulBias).
type Linear struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       []float32
	GradW   *tensor.Matrix
	GradB   []float32

	relu bool
	x    *tensor.Matrix // cached input
	out  *tensor.Matrix
	dx   *tensor.Matrix
	// noInputGrad: the input is data, nobody reads dx, Backward returns nil.
	noInputGrad bool
	// Backward scratch, reused across calls: dout masked by the ReLU, Wᵀ, so
	// the input gradient runs through tensor's one kernel (the weight
	// gradient reads x in place, tensor.MatMulTransA), and this batch's
	// xᵀ·dout and colsums(dout) before they are added to the accumulators.
	dpre *tensor.Matrix
	wT   *tensor.Matrix
	gw   *tensor.Matrix
	sums []float32
}

// NewLinear returns a Linear layer with Xavier-initialized weights drawn
// from rng.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:    in,
		Out:   out,
		W:     tensor.NewMatrix(in, out),
		B:     make([]float32, out),
		GradW: tensor.NewMatrix(in, out),
		GradB: make([]float32, out),
	}
	tensor.XavierInit(l.W, in, out, rng)
	return l
}

func ensureShape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || m.Rows != rows || m.Cols != cols {
		return tensor.NewMatrix(rows, cols)
	}
	return m
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear(%d,%d) got input with %d cols", l.In, l.Out, x.Cols))
	}
	l.x = x
	l.out = ensureShape(l.out, x.Rows, l.Out)
	tensor.MatMulBias(l.out, x, l.W, l.B, l.relu)
	return l.out
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Matrix) *tensor.Matrix {
	// dW += xᵀ·dout ; db += colsums(dout) ; dx = dout·Wᵀ. The products are
	// formed in scratch (both calls overwrite it) and then added, so each
	// accumulator element takes one addition per call whatever it held.
	if l.gw == nil {
		l.gw, l.sums = tensor.NewMatrix(l.In, l.Out), make([]float32, l.Out)
	}
	if l.relu {
		// The output's bits are non-zero exactly where the pre-activation
		// was > 0, so it is the ReLU's mask and no pre-activation is kept.
		l.dpre = ensureShape(l.dpre, dout.Rows, dout.Cols)
		tensor.ReLUGrad(l.dpre, dout, l.out)
		dout = l.dpre
	}
	tensor.MatMulTransA(l.gw, l.x, dout)
	l.GradW.AddScaled(l.gw, 1)
	tensor.ColSums(l.sums, dout)
	tensor.Axpy(1, l.sums, l.GradB)

	if l.noInputGrad {
		return nil
	}
	// Zero entries of dout are skipped only while every weight is finite,
	// where 0·w adds ±0 and changes no bit: a non-finite weight must poison
	// dx even where the upstream gradient is zero (0·Inf is NaN).
	l.wT = ensureShape(l.wT, l.Out, l.In)
	l.dx = ensureShape(l.dx, dout.Rows, l.In)
	if tensor.Transpose(l.wT, l.W) {
		tensor.MatMul(l.dx, dout, l.wT)
	} else {
		tensor.MatMulNoSkip(l.dx, dout, l.wT)
	}
	return l.dx
}

// Params implements Layer.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: fmt.Sprintf("linear%dx%d.W", l.In, l.Out), Value: l.W.Data, Grad: l.GradW.Data},
		{Name: fmt.Sprintf("linear%dx%d.b", l.In, l.Out), Value: l.B, Grad: l.GradB},
	}
}

// NumParams returns the number of scalar parameters in the layer.
func (l *Linear) NumParams() int { return l.In*l.Out + l.Out }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	out *tensor.Matrix
	dx  *tensor.Matrix
}

// SigmoidScalar returns 1/(1+e^-x) computed in float64 for stability.
func SigmoidScalar(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Matrix) *tensor.Matrix {
	s.out = ensureShape(s.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		s.out.Data[i] = SigmoidScalar(v)
	}
	return s.out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(dout *tensor.Matrix) *tensor.Matrix {
	s.dx = ensureShape(s.dx, dout.Rows, dout.Cols)
	for i, o := range s.out.Data {
		s.dx.Data[i] = dout.Data[i] * o * (1 - o)
	}
	return s.dx
}

// Params implements Layer.
func (s *Sigmoid) Params() []Param { return nil }

// MLP is a stack of Linear layers with ReLU between them and, optionally,
// after the last layer, each ReLU fused into the Linear before it.
type MLP struct {
	layers []*Linear
}

// NewInputMLP is NewMLP for a tower fed by data rather than by another
// layer: its Backward forms no input gradient and returns nil, which saves
// the first layer's dout·Wᵀ product.
func NewInputMLP(dims []int, reluOnOutput bool, rng *tensor.RNG) *MLP {
	m := NewMLP(dims, reluOnOutput, rng)
	m.layers[0].noInputGrad = true
	return m
}

// NewMLP builds an MLP with the given layer widths. dims[0] is the input
// width. If reluOnOutput is true a ReLU follows the final Linear as well
// (DLRM applies an activation to the bottom MLP output).
func NewMLP(dims []int, reluOnOutput bool, rng *tensor.RNG) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		l := NewLinear(dims[i], dims[i+1], rng)
		l.relu = i+2 < len(dims) || reluOnOutput
		m.layers = append(m.layers, l)
	}
	return m
}

// Forward implements Layer.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (m *MLP) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dout = m.layers[i].Backward(dout)
	}
	return dout
}

// Params implements Layer.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the number of scalar parameters in the MLP.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.layers {
		n += l.NumParams()
	}
	return n
}

// ZeroGrads clears the gradient accumulators of all params in ps.
func ZeroGrads(ps []Param) {
	for _, p := range ps {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// ParamCount sums the scalar sizes of ps.
func ParamCount(ps []Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.Value)
	}
	return n
}
