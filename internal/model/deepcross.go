package model

import (
	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// DeepCross is the Deep&Cross network (Table 2 row 3): the network input
// x0 concatenates numeric features and all embeddings; an explicit cross
// network (NumCross cross layers) and a deep MLP 1024-512-256-64-48 run in
// parallel over x0; the head MLP 512-256-1 consumes their concatenation.
type DeepCross struct {
	whole
	cfg   Config
	dim   int
	cross []*nn.CrossLayer
	deep  *nn.MLP
	head  *nn.MLP

	x0Cat   nn.Concat2 // dense ++ emb → x0
	headCat nn.Concat2 // crossOut ++ deepOut → head input

	dense *tensor.Matrix // ForwardDense → ForwardSparse
	x0    *tensor.Matrix
	dl    column
	dx0   *tensor.Matrix // BackwardSparse scratch
}

// NumCrossLayers is the cross-network depth (the DCN paper's Criteo config).
const NumCrossLayers = 6

// NewDeepCross builds Deep&Cross for the given dataset shape.
func NewDeepCross(cfg Config) *DeepCross {
	rng := tensor.NewRNG(cfg.Seed ^ 0xDC)
	dim := cfg.embDim(48)
	m := &DeepCross{cfg: cfg, dim: dim}
	m.whole = whole{m}
	x0Dim := cfg.NumNumeric + cfg.NumCategorical*dim
	for i := 0; i < NumCrossLayers; i++ {
		m.cross = append(m.cross, nn.NewCrossLayer(x0Dim, rng))
	}
	m.deep = nn.NewMLP([]int{x0Dim, 1024, 512, 256, 64, dim}, true, rng)
	m.head = nn.NewMLP([]int{x0Dim + dim, 512, 256, 1}, false, rng)
	return m
}

// Name implements Model.
func (m *DeepCross) Name() string { return "dc" }

// EmbDim implements Model.
func (m *DeepCross) EmbDim() int { return m.dim }

// ForwardDense implements Model. Every layer reads x0, which holds the
// embeddings, so there is nothing to run ahead of them.
func (m *DeepCross) ForwardDense(dense *tensor.Matrix) { m.dense = dense }

// ForwardSparse implements Model: the whole network.
func (m *DeepCross) ForwardSparse(emb *tensor.Matrix, _ [][]uint64) []float32 {
	m.x0 = m.x0Cat.Forward2(m.dense, emb)
	x := m.x0
	for _, c := range m.cross {
		c.SetX0(m.x0)
		x = c.Forward(x)
	}
	deepOut := m.deep.Forward(m.x0)
	headIn := m.headCat.Forward2(x, deepOut)
	return logitsOf(m.head.Forward(headIn))
}

// BackwardSparse implements Model: dEmb is a slice of dx0, the last
// gradient the network produces, so this is the whole backward pass.
func (m *DeepCross) BackwardSparse(dlogits []float32) *tensor.Matrix {
	dHeadIn := m.head.Backward(m.dl.of(dlogits))
	dCross, dDeep := m.headCat.Backward2(dHeadIn)

	// cross-network backprop: walk layers in reverse, accumulating each
	// layer's gradient with respect to the shared x0. A cross layer only
	// reads its dout, so headCat's split buffer feeds the last one as is.
	dx := dCross
	m.dx0 = scratch(m.dx0, dx.Rows, dx.Cols)
	dx0 := m.dx0
	dx0.Zero()
	for i := len(m.cross) - 1; i >= 0; i-- {
		dx = m.cross[i].Backward(dx)
		dx0.AddScaled(m.cross[i].GradX0(), 1)
	}
	// the first cross layer's input IS x0
	dx0.AddScaled(dx, 1)
	dx0.AddScaled(m.deep.Backward(dDeep), 1)

	_, dEmb := m.x0Cat.Backward2(dx0)
	return dEmb
}

// BackwardDense implements Model.
func (m *DeepCross) BackwardDense() {}

// Params implements Model.
func (m *DeepCross) Params() []nn.Param {
	var ps []nn.Param
	for _, c := range m.cross {
		ps = append(ps, c.Params()...)
	}
	ps = append(ps, m.deep.Params()...)
	ps = append(ps, m.head.Params()...)
	return ps
}

// DenseParamCount implements Model.
func (m *DeepCross) DenseParamCount() int {
	n := m.deep.NumParams() + m.head.NumParams()
	for _, c := range m.cross {
		n += c.NumParams()
	}
	return n
}
