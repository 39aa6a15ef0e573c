// Package nn implements the neural-network layers used by the
// recommendation models in this repository: fully connected layers,
// activations, multi-layer perceptrons, the DLRM pairwise dot-product
// interaction, a factorization-machine second-order term (DeepFM), and the
// explicit cross layer (Deep&Cross), with hand-written backpropagation.
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

// Linear is a fully connected layer: out = x·W + b with W of shape in×out.
type Linear struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       []float32
	GradW   *tensor.Matrix
	GradB   []float32

	x   *tensor.Matrix // cached input
	out *tensor.Matrix
	dx  *tensor.Matrix
	// noInputGrad: the input is data, nobody reads dx, Backward returns nil.
	noInputGrad bool
	// Backward scratch, reused across calls: xᵀ and Wᵀ, so both gradient
	// products run through tensor's one kernel, and this batch's xᵀ·dout and
	// colsums(dout) before they are added to the accumulators.
	xT, wT *tensor.Matrix
	gw     *tensor.Matrix
	sums   []float32
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
	tensor.MatMul(l.out, x, l.W)
	tensor.AddRowVector(l.out, l.B)
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
	l.xT = ensureShape(l.xT, l.In, l.x.Rows)
	tensor.Transpose(l.xT, l.x)
	tensor.MatMul(l.gw, l.xT, dout)
	l.GradW.AddScaled(l.gw, 1)
	tensor.ColSums(l.sums, dout)
	tensor.Axpy(1, l.sums, l.GradB)

	if l.noInputGrad {
		return nil
	}
	// Zero entries of dout are multiplied through, not skipped: a non-finite
	// weight must poison dx even where the upstream gradient is zero.
	l.wT = ensureShape(l.wT, l.Out, l.In)
	tensor.Transpose(l.wT, l.W)
	l.dx = ensureShape(l.dx, dout.Rows, l.In)
	tensor.MatMulNoSkip(l.dx, dout, l.wT)
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

// ReLU is the rectified linear activation.
type ReLU struct {
	x   *tensor.Matrix
	out *tensor.Matrix
	dx  *tensor.Matrix
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.x = x
	r.out = ensureShape(r.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			r.out.Data[i] = v
		} else {
			r.out.Data[i] = 0
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	r.dx = ensureShape(r.dx, dout.Rows, dout.Cols)
	for i, v := range r.x.Data {
		if v > 0 {
			r.dx.Data[i] = dout.Data[i]
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

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
// after the last layer.
type MLP struct {
	layers []Layer
}

// NewInputMLP is NewMLP for a tower fed by data rather than by another
// layer: its Backward forms no input gradient and returns nil, which saves
// the first layer's dout·Wᵀ product.
func NewInputMLP(dims []int, reluOnOutput bool, rng *tensor.RNG) *MLP {
	m := NewMLP(dims, reluOnOutput, rng)
	m.layers[0].(*Linear).noInputGrad = true
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
		m.layers = append(m.layers, NewLinear(dims[i], dims[i+1], rng))
		if i+2 < len(dims) || reluOnOutput {
			m.layers = append(m.layers, &ReLU{})
		}
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
		if lin, ok := l.(*Linear); ok {
			n += lin.NumParams()
		}
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
