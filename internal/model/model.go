// Package model assembles the four recommendation models the paper
// evaluates (Table 2): Meta's DLRM, Google's Wide&Deep, Deep&Cross, and
// Huawei's DeepFM. All four share the structure of Figure 1 — embedding
// tables for categorical features, an MLP path for numeric features, an
// interaction stage, and a prediction head — and differ in the interaction
// and in dense-parameter count, which is what drives their different
// synchronization costs in the evaluation.
//
// A model consumes a batch as (dense features, gathered embedding rows,
// categorical IDs) and produces logits; Backward returns the gradient with
// respect to the gathered embedding rows so the training pipeline can route
// sparse updates through the cache/servers, while dense gradients accumulate
// inside the model for the optimizer.
//
// Both passes are staged around the one point where embedding rows enter the
// computation. ForwardDense runs everything that never reads an embedding
// (W&D's numeric tower, DLRM's bottom MLP); ForwardSparse takes the gathered
// rows and finishes the logits; BackwardSparse stops as soon as the embedding
// gradient is final; BackwardDense finishes the dense-parameter gradients.
// The LRPP trainer schedules its mesh traffic in the gaps — replicas arrive
// during ForwardDense, gradient partials leave before BackwardDense — and
// Forward/Backward are those halves back to back (whole), so every caller
// runs the same layer calls in the same order and computes the same bits.
// Deep&Cross and DeepFM feed embeddings to their first layer: their dense
// halves are empty.
package model

import (
	"fmt"

	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// Model is a trainable recommendation model.
type Model interface {
	// Name identifies the model ("dlrm", "wd", "dc", "deepfm").
	Name() string
	// EmbDim returns the embedding-vector width the model expects.
	EmbDim() int
	// Forward computes per-example logits. dense is B×NumNumeric, emb is
	// B×(NumCategorical·EmbDim) holding the gathered embedding rows in
	// feature order, cats[i] are example i's global embedding IDs. It is
	// ForwardDense then ForwardSparse.
	Forward(dense, emb *tensor.Matrix, cats [][]uint64) []float32
	// Backward consumes dlogits (len B) and returns the gradient w.r.t.
	// the emb input. Dense parameter gradients are accumulated internally.
	// It is BackwardSparse then BackwardDense.
	Backward(dlogits []float32) *tensor.Matrix
	Staged
	// Params returns the dense parameters and their gradients.
	Params() []nn.Param
	// DenseParamCount returns the number of scalar dense parameters
	// (the Table 2 column).
	DenseParamCount() int
}

// Staged is the two passes cut at the point where embedding rows enter the
// computation; the calling convention is strictly ForwardDense,
// ForwardSparse, BackwardSparse, BackwardDense per step.
type Staged interface {
	// ForwardDense runs the part of the forward pass that reads no
	// embedding row. dense must stay untouched until ForwardSparse returns.
	ForwardDense(dense *tensor.Matrix)
	// ForwardSparse completes the pass begun by ForwardDense.
	ForwardSparse(emb *tensor.Matrix, cats [][]uint64) []float32
	// BackwardSparse backpropagates dlogits exactly as far as the emb
	// input and returns that gradient, final; the buffer is the model's
	// and valid until the next pass.
	BackwardSparse(dlogits []float32) *tensor.Matrix
	// BackwardDense finishes the backward pass: only after it are the
	// Params gradients complete.
	BackwardDense()
}

// Config carries the dataset-shape inputs a model needs.
type Config struct {
	NumCategorical int
	NumNumeric     int
	// TotalRows is the total embedding-row count across tables; DeepFM
	// sizes its first-order "linear features" weight vector with it.
	TotalRows int64
	// EmbDim overrides the model's default embedding width if positive.
	EmbDim int
	Seed   uint64
}

func (c Config) embDim(def int) int {
	if c.EmbDim > 0 {
		return c.EmbDim
	}
	return def
}

// New constructs a model by name.
func New(name string, cfg Config) (Model, error) {
	switch name {
	case "dlrm":
		return NewDLRM(cfg), nil
	case "wd", "widedeep", "w&d":
		return NewWideDeep(cfg), nil
	case "dc", "deepcross", "d&c":
		return NewDeepCross(cfg), nil
	case "deepfm":
		return NewDeepFM(cfg), nil
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// Names lists the models in the paper's Table 2 order.
func Names() []string { return []string{"dlrm", "wd", "dc", "deepfm"} }

// whole is embedded by every model and defines the one-call passes as its
// staged halves back to back, so no model states its layer sequence twice.
type whole struct{ s Staged }

// Forward implements Model.
func (w whole) Forward(dense, emb *tensor.Matrix, cats [][]uint64) []float32 {
	w.s.ForwardDense(dense)
	return w.s.ForwardSparse(emb, cats)
}

// Backward implements Model.
func (w whole) Backward(dlogits []float32) *tensor.Matrix {
	dEmb := w.s.BackwardSparse(dlogits)
	w.s.BackwardDense()
	return dEmb
}

// logitsOf extracts a column-0 view of a B×1 matrix as a logits slice.
func logitsOf(m *tensor.Matrix) []float32 {
	if m.Cols != 1 {
		panic(fmt.Sprintf("model: head output has %d cols, want 1", m.Cols))
	}
	return m.Data
}

// DLRM is Meta's Deep Learning Recommendation Model (Table 2 row 1):
// bottom MLP 13-512-256-64-48 over numeric features, pairwise dot-product
// interaction over the 26 embeddings plus the bottom output, and top MLP
// 1024-1024-1024-256-128-1 over the concatenated bottom output and
// interactions.
type DLRM struct {
	whole
	cfg    Config
	dim    int
	bottom *nn.MLP
	inter  *nn.DotInteraction
	top    *nn.MLP

	featCat nn.Concat2 // emb ++ bottomOut → interaction input
	topCat  nn.Concat2 // bottomOut ++ interOut → top input

	embCols      int
	bot          *tensor.Matrix // ForwardDense → ForwardSparse
	dBot1, dBot2 *tensor.Matrix // BackwardSparse → BackwardDense
}

// NewDLRM builds DLRM for the given dataset shape.
func NewDLRM(cfg Config) *DLRM {
	rng := tensor.NewRNG(cfg.Seed ^ 0xD1)
	dim := cfg.embDim(48)
	m := &DLRM{cfg: cfg, dim: dim}
	m.whole = whole{m}
	m.bottom = nn.NewInputMLP([]int{cfg.NumNumeric, 512, 256, 64, dim}, true, rng)
	numFeat := cfg.NumCategorical + 1
	m.inter = nn.NewDotInteraction(numFeat, dim)
	topIn := dim + m.inter.OutDim()
	m.top = nn.NewMLP([]int{topIn, 1024, 1024, 1024, 256, 128, 1}, false, rng)
	m.embCols = cfg.NumCategorical * dim
	return m
}

// Name implements Model.
func (m *DLRM) Name() string { return "dlrm" }

// EmbDim implements Model.
func (m *DLRM) EmbDim() int { return m.dim }

// ForwardDense implements Model: the bottom MLP.
func (m *DLRM) ForwardDense(dense *tensor.Matrix) { m.bot = m.bottom.Forward(dense) }

// ForwardSparse implements Model: interaction and top MLP.
func (m *DLRM) ForwardSparse(emb *tensor.Matrix, _ [][]uint64) []float32 {
	feats := m.featCat.Forward2(emb, m.bot)
	inter := m.inter.Forward(feats)
	topIn := m.topCat.Forward2(m.bot, inter)
	return logitsOf(m.top.Forward(topIn))
}

// BackwardSparse implements Model: top MLP and interaction, down to the
// split of the interaction input into embeddings and bottom output.
func (m *DLRM) BackwardSparse(dlogits []float32) *tensor.Matrix {
	dTopIn := m.top.Backward(tensor.FromSlice(len(dlogits), 1, dlogits))
	dBot1, dInter := m.topCat.Backward2(dTopIn)
	dFeats := m.inter.Backward(dInter)
	dEmb, dBot2 := m.featCat.Backward2(dFeats)
	m.dBot1, m.dBot2 = dBot1, dBot2
	return dEmb
}

// BackwardDense implements Model: the bottom MLP, fed by both of its uses.
func (m *DLRM) BackwardDense() {
	// Summed in place: dBot1 is topCat's own split buffer, rewritten by the
	// next BackwardSparse and read by nobody else.
	m.dBot1.AddScaled(m.dBot2, 1)
	m.bottom.Backward(m.dBot1)
}

// Params implements Model.
func (m *DLRM) Params() []nn.Param {
	return append(m.bottom.Params(), m.top.Params()...)
}

// DenseParamCount implements Model.
func (m *DLRM) DenseParamCount() int { return m.bottom.NumParams() + m.top.NumParams() }

// WideDeep is Google's Wide&Deep (Table 2 row 2): a deep MLP 13-256-256-256
// over numeric features, with the prediction head a linear layer over the
// concatenation of the deep output and all embedding vectors (this exact
// head reproduces Table 2's 136,673 dense parameters for Criteo: 135,168
// MLP + 256+26·48+1 head).
type WideDeep struct {
	whole
	cfg  Config
	dim  int
	deep *nn.MLP
	head *nn.Linear
	cat  nn.Concat2

	deepOut *tensor.Matrix // ForwardDense → ForwardSparse
	dDeep   *tensor.Matrix // BackwardSparse → BackwardDense
}

// NewWideDeep builds Wide&Deep for the given dataset shape.
func NewWideDeep(cfg Config) *WideDeep {
	rng := tensor.NewRNG(cfg.Seed ^ 0x3D)
	dim := cfg.embDim(48)
	m := &WideDeep{cfg: cfg, dim: dim}
	m.whole = whole{m}
	m.deep = nn.NewInputMLP([]int{cfg.NumNumeric, 256, 256, 256}, true, rng)
	m.head = nn.NewLinear(256+cfg.NumCategorical*dim, 1, rng)
	return m
}

// Name implements Model.
func (m *WideDeep) Name() string { return "wd" }

// EmbDim implements Model.
func (m *WideDeep) EmbDim() int { return m.dim }

// ForwardDense implements Model: the numeric-feature tower.
func (m *WideDeep) ForwardDense(dense *tensor.Matrix) { m.deepOut = m.deep.Forward(dense) }

// ForwardSparse implements Model: concat and head.
func (m *WideDeep) ForwardSparse(emb *tensor.Matrix, _ [][]uint64) []float32 {
	headIn := m.cat.Forward2(m.deepOut, emb)
	return logitsOf(m.head.Forward(headIn))
}

// BackwardSparse implements Model: the head alone decides dEmb.
func (m *WideDeep) BackwardSparse(dlogits []float32) *tensor.Matrix {
	dHeadIn := m.head.Backward(tensor.FromSlice(len(dlogits), 1, dlogits))
	dDeep, dEmb := m.cat.Backward2(dHeadIn)
	m.dDeep = dDeep
	return dEmb
}

// BackwardDense implements Model: the tower.
func (m *WideDeep) BackwardDense() { m.deep.Backward(m.dDeep) }

// Params implements Model.
func (m *WideDeep) Params() []nn.Param {
	return append(m.deep.Params(), m.head.Params()...)
}

// DenseParamCount implements Model.
func (m *WideDeep) DenseParamCount() int { return m.deep.NumParams() + m.head.NumParams() }
