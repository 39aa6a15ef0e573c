package model

import (
	"fmt"

	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// DeepFM is Huawei's DeepFM (Table 2 row 4). Its logit sums three paths:
//
//	ŷ = w₀ + Σᵢ w[idᵢ]  (first-order "linear features")
//	   + FM₂(embeddings) (second-order factorization-machine term)
//	   + MLP(concat embeddings) (deep path, FC 1248-64-64-64 → 1)
//
// The linear-feature weight vector has one scalar per embedding row
// (33,762,577 parameters for Criteo Kaggle). The paper's Table 2 counts it
// as a *dense* parameter block — the open-source DeepFM implementations
// replicate and all-reduce it like any dense layer — which is exactly why
// DeepFM is the model where TorchRec's dense synchronization saturates the
// network and Bagpipe's caching wins 3.7× (Figure 10). We reproduce that
// accounting: the weights live in a dense nn.Param synchronized by the
// trainer's dense all-reduce, indexed sparsely by global embedding ID.
type DeepFM struct {
	whole
	cfg Config
	dim int

	linW     []float32 // TotalRows weights + shared bias at index TotalRows
	linGrad  []float32
	fm       *nn.FMSecondOrder
	deep     *nn.MLP
	deepHead *nn.Linear

	cats [][]uint64
	dEmb *tensor.Matrix
}

// NewDeepFM builds DeepFM for the given dataset shape. cfg.TotalRows must
// be the dataset's total embedding-row count.
func NewDeepFM(cfg Config) *DeepFM {
	if cfg.TotalRows <= 0 {
		panic(fmt.Sprintf("model: DeepFM needs TotalRows, got %d", cfg.TotalRows))
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xDF)
	dim := cfg.embDim(48)
	m := &DeepFM{cfg: cfg, dim: dim}
	m.whole = whole{m}
	m.linW = make([]float32, cfg.TotalRows+1)
	tensor.UniformInit(m.linW, 0.01, rng)
	m.linGrad = make([]float32, cfg.TotalRows+1)
	m.fm = nn.NewFMSecondOrder(cfg.NumCategorical, dim)
	embCols := cfg.NumCategorical * dim
	m.deep = nn.NewMLP([]int{embCols, 64, 64, 64}, true, rng)
	m.deepHead = nn.NewLinear(64, 1, rng)
	return m
}

// Name implements Model.
func (m *DeepFM) Name() string { return "deepfm" }

// EmbDim implements Model.
func (m *DeepFM) EmbDim() int { return m.dim }

// ForwardDense implements Model. DeepFM has no numeric-feature path.
func (m *DeepFM) ForwardDense(*tensor.Matrix) {}

// ForwardSparse implements Model: all three paths read the embeddings or
// their IDs.
func (m *DeepFM) ForwardSparse(emb *tensor.Matrix, cats [][]uint64) []float32 {
	if len(cats) != emb.Rows {
		panic("model: DeepFM needs per-example categorical IDs")
	}
	m.cats = cats
	fmOut := m.fm.Forward(emb)
	deepOut := m.deepHead.Forward(m.deep.Forward(emb))
	logits := make([]float32, emb.Rows)
	bias := m.linW[len(m.linW)-1]
	for i := range logits {
		first := bias
		for _, id := range cats[i] {
			first += m.linW[id]
		}
		logits[i] = first + fmOut.Data[i] + deepOut.Data[i]
	}
	return logits
}

// BackwardSparse implements Model: dEmb sums the FM and deep paths' input
// gradients, so this is the whole backward pass.
func (m *DeepFM) BackwardSparse(dlogits []float32) *tensor.Matrix {
	dl := tensor.FromSlice(len(dlogits), 1, dlogits)
	dEmbFM := m.fm.Backward(dl)
	dEmbDeep := m.deep.Backward(m.deepHead.Backward(dl))
	if m.dEmb == nil || m.dEmb.Rows != dEmbFM.Rows || m.dEmb.Cols != dEmbFM.Cols {
		m.dEmb = tensor.NewMatrix(dEmbFM.Rows, dEmbFM.Cols)
	}
	copy(m.dEmb.Data, dEmbFM.Data)
	m.dEmb.AddScaled(dEmbDeep, 1)

	biasIdx := len(m.linGrad) - 1
	for i, g := range dlogits {
		m.linGrad[biasIdx] += g
		for _, id := range m.cats[i] {
			m.linGrad[id] += g
		}
	}
	return m.dEmb
}

// BackwardDense implements Model.
func (m *DeepFM) BackwardDense() {}

// Params implements Model. The linear-feature block is first, so dense
// synchronization accounts for its full 33.76M-scalar size.
func (m *DeepFM) Params() []nn.Param {
	ps := []nn.Param{{Name: "deepfm.linear_features", Value: m.linW, Grad: m.linGrad}}
	ps = append(ps, m.deep.Params()...)
	ps = append(ps, m.deepHead.Params()...)
	return ps
}

// DenseParamCount implements Model.
func (m *DeepFM) DenseParamCount() int {
	return len(m.linW) + m.deep.NumParams() + m.deepHead.NumParams()
}

// PaperDenseParamCount returns the Table 2 count for the full-size Criteo
// Kaggle configuration, for cross-checking against the paper.
func PaperDenseParamCount(name string) int {
	switch name {
	case "dlrm":
		return 2962289
	case "wd":
		return 136673
	case "dc":
		return 2718609
	case "deepfm":
		return 33851283
	}
	return 0
}
