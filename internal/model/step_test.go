package model

import (
	"testing"

	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// benchStep is one steady training step of a model at the benchmark's shape
// (benchShapeCfg, 128 examples): the gradient accumulators cleared through a
// params list built once, the four staged passes, and the loss gradient
// between them, as a trainer runs them.
type benchStep struct {
	m               Model
	params          []nn.Param
	dense, emb      *tensor.Matrix
	cats            [][]uint64
	labels, dlogits []float32
}

func newBenchStep(tb testing.TB, name string) *benchStep {
	m, err := New(name, benchShapeCfg())
	if err != nil {
		tb.Fatal(err)
	}
	dense, emb, cats, labels := benchShapeBatch(128)
	return &benchStep{m, m.Params(), dense, emb, cats, labels, make([]float32, len(labels))}
}

func (s *benchStep) run() {
	nn.ZeroGrads(s.params)
	s.m.ForwardDense(s.dense)
	nn.BCEWithLogits(s.m.ForwardSparse(s.emb, s.cats), s.labels, s.dlogits)
	s.m.BackwardSparse(s.dlogits)
	s.m.BackwardDense()
}

// Every buffer a step touches is layer- or model-owned scratch, sized on the
// first step: a steady step allocates nothing.
func TestModelStepAllocFree(t *testing.T) {
	for _, name := range Names() {
		s := newBenchStep(t, name)
		if avg := testing.AllocsPerRun(2, s.run); avg != 0 {
			t.Errorf("%s: a steady step allocates %.1f times, want 0", name, avg)
		}
	}
}

// BenchmarkModelStep times one steady step per model at the benchmark's
// shape; run it with -benchmem.
func BenchmarkModelStep(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			s := newBenchStep(b, name)
			s.run() // sizes the scratch
			b.ReportAllocs()
			for b.Loop() {
				s.run()
			}
		})
	}
}
