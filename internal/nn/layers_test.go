package nn

import (
	"math"
	"testing"

	"bagpipe/internal/tensor"
)

// lossOf runs forward through layer and returns a scalar loss: the weighted
// sum of outputs with fixed coefficients, which makes the analytic output
// gradient trivially the coefficients themselves.
func lossOf(l Layer, x *tensor.Matrix, coef []float32) float32 {
	out := l.Forward(x)
	var s float32
	for i, v := range out.Data {
		s += coef[i] * v
	}
	return s
}

// gradCheckInput verifies Backward's input gradient against central finite
// differences.
func gradCheckInput(t *testing.T, l Layer, x *tensor.Matrix, outLen int) {
	t.Helper()
	rng := tensor.NewRNG(17)
	coef := make([]float32, outLen)
	for i := range coef {
		coef[i] = rng.Float32()*2 - 1
	}
	out := l.Forward(x)
	if len(out.Data) != outLen {
		t.Fatalf("output has %d elements, want %d", len(out.Data), outLen)
	}
	dout := tensor.FromSlice(out.Rows, out.Cols, append([]float32(nil), coef...))
	ZeroGrads(l.Params())
	dx := l.Backward(dout)

	const h = 1e-2
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(l, x, coef)
		x.Data[i] = orig - h
		lm := lossOf(l, x, coef)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		got := dx.Data[i]
		if math.Abs(float64(num-got)) > 2e-2*math.Max(1, math.Abs(float64(num))) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, got, num)
		}
	}
}

// gradCheckParams verifies accumulated parameter gradients against central
// finite differences.
func gradCheckParams(t *testing.T, l Layer, x *tensor.Matrix, outLen int) {
	t.Helper()
	rng := tensor.NewRNG(29)
	coef := make([]float32, outLen)
	for i := range coef {
		coef[i] = rng.Float32()*2 - 1
	}
	out := l.Forward(x)
	dout := tensor.FromSlice(out.Rows, out.Cols, append([]float32(nil), coef...))
	ZeroGrads(l.Params())
	l.Backward(dout)

	const h = 1e-2
	for _, p := range l.Params() {
		for i := range p.Value {
			orig := p.Value[i]
			p.Value[i] = orig + h
			lp := lossOf(l, x, coef)
			p.Value[i] = orig - h
			lm := lossOf(l, x, coef)
			p.Value[i] = orig
			num := (lp - lm) / (2 * h)
			got := p.Grad[i]
			if math.Abs(float64(num-got)) > 2e-2*math.Max(1, math.Abs(float64(num))) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, got, num)
			}
		}
	}
}

func randInput(rows, cols int, seed uint64) *tensor.Matrix {
	rng := tensor.NewRNG(seed)
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestLinearForwardKnown(t *testing.T) {
	l := NewLinear(2, 2, tensor.NewRNG(1))
	copy(l.W.Data, []float32{1, 2, 3, 4})
	copy(l.B, []float32{10, 20})
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	out := l.Forward(x)
	if out.Data[0] != 14 || out.Data[1] != 26 {
		t.Fatalf("got %v want [14 26]", out.Data)
	}
}

func TestLinearGradients(t *testing.T) {
	l := NewLinear(4, 3, tensor.NewRNG(2))
	x := randInput(5, 4, 3)
	gradCheckInput(t, l, x, 5*3)
	gradCheckParams(t, l, x, 5*3)
}

func TestReLUGradients(t *testing.T) {
	r := &ReLU{}
	// keep inputs away from the kink at 0
	x := randInput(4, 6, 5)
	for i := range x.Data {
		if x.Data[i] > -0.05 && x.Data[i] < 0.05 {
			x.Data[i] = 0.3
		}
	}
	gradCheckInput(t, r, x, 24)
}

func TestSigmoidGradients(t *testing.T) {
	s := &Sigmoid{}
	x := randInput(3, 5, 7)
	gradCheckInput(t, s, x, 15)
}

func TestMLPGradients(t *testing.T) {
	m := NewMLP([]int{6, 8, 4}, false, tensor.NewRNG(11))
	x := randInput(3, 6, 13)
	gradCheckInput(t, m, x, 12)
	gradCheckParams(t, m, x, 12)
}

// An input MLP forms no input gradient and, from the same seed and batch,
// exactly the parameter gradients of the MLP that does.
func TestInputMLPSkipsOnlyTheInputGradient(t *testing.T) {
	dims := []int{5, 9, 4}
	full, lean := NewMLP(dims, true, tensor.NewRNG(3)), NewInputMLP(dims, true, tensor.NewRNG(3))
	x, dout := randInput(6, 5, 8), randInput(6, 4, 9)
	full.Forward(x)
	lean.Forward(x)
	if dx := full.Backward(dout); dx == nil || dx.Rows != 6 || dx.Cols != 5 {
		t.Fatalf("MLP.Backward returned %v, want a 6x5 input gradient", dx)
	}
	if dx := lean.Backward(dout); dx != nil {
		t.Fatalf("input MLP returned an input gradient: %v", dx)
	}
	fp, lp := full.Params(), lean.Params()
	for i := range fp {
		for j, g := range fp[i].Grad {
			if math.Float32bits(g) != math.Float32bits(lp[i].Grad[j]) {
				t.Fatalf("%s[%d]: %v with the input gradient, %v without", fp[i].Name, j, g, lp[i].Grad[j])
			}
		}
	}
}

// The two gradient products differ on zeros, as the loops they replaced did:
// a zero activation skips its row of dout (0·Inf never reaches dW), a zero
// upstream gradient is still multiplied through W (0·Inf poisons dx).
func TestLinearBackwardZeroTimesInf(t *testing.T) {
	inf := float32(math.Inf(1))
	l := NewLinear(2, 2, tensor.NewRNG(1))
	copy(l.W.Data, []float32{1, inf, 3, 4})
	l.Forward(tensor.FromSlice(1, 2, []float32{0, 1}))
	dx := l.Backward(tensor.FromSlice(1, 2, []float32{1, 0}))
	if dx.Data[0] == dx.Data[0] || dx.Data[1] != 3 { // dx[0] = 1·1 + 0·Inf
		t.Fatalf("dx=%v, want [NaN 3]", dx.Data)
	}
	l.Forward(tensor.FromSlice(1, 2, []float32{0, 1}))
	ZeroGrads(l.Params())
	l.Backward(tensor.FromSlice(1, 2, []float32{inf, 2}))
	if want := []float32{0, 0, inf, 2}; !tensor.FromSlice(2, 2, want).Equal(l.GradW) { // row 0 = 0·[Inf 2], skipped
		t.Fatalf("GradW=%v, want %v", l.GradW.Data, want)
	}
}

func TestMLPNumParams(t *testing.T) {
	m := NewMLP([]int{13, 512, 256, 64, 48}, true, tensor.NewRNG(1))
	want := 13*512 + 512 + 512*256 + 256 + 256*64 + 64 + 64*48 + 48
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams=%d want %d", got, want)
	}
	if got := ParamCount(m.Params()); got != want {
		t.Fatalf("ParamCount=%d want %d", got, want)
	}
}

func TestMLPReluOnOutput(t *testing.T) {
	m := NewMLP([]int{2, 2}, true, tensor.NewRNG(1))
	x := tensor.FromSlice(1, 2, []float32{-100, -100})
	out := m.Forward(x)
	for _, v := range out.Data {
		if v < 0 {
			t.Fatalf("ReLU on output should clamp negatives, got %v", v)
		}
	}
}

func TestDotInteractionKnown(t *testing.T) {
	// two features of dim 2: vectors (1,2) and (3,4) -> dot = 11
	d := NewDotInteraction(2, 2)
	x := tensor.FromSlice(1, 4, []float32{1, 2, 3, 4})
	out := d.Forward(x)
	if out.Cols != 1 || out.Data[0] != 11 {
		t.Fatalf("got %v want [11]", out.Data)
	}
}

func TestDotInteractionOutDim(t *testing.T) {
	d := NewDotInteraction(27, 48)
	if d.OutDim() != 27*26/2 {
		t.Fatalf("OutDim=%d want %d", d.OutDim(), 27*26/2)
	}
}

func TestDotInteractionGradients(t *testing.T) {
	d := NewDotInteraction(4, 3)
	x := randInput(3, 12, 19)
	gradCheckInput(t, d, x, 3*d.OutDim())
}

func TestFMSecondOrderKnown(t *testing.T) {
	// vectors (1,0) and (2,0): ½[(3²−(1+4))] = ½(9−5)=2
	f := NewFMSecondOrder(2, 2)
	x := tensor.FromSlice(1, 4, []float32{1, 0, 2, 0})
	out := f.Forward(x)
	if out.Data[0] != 2 {
		t.Fatalf("got %v want 2", out.Data[0])
	}
}

func TestFMSecondOrderGradients(t *testing.T) {
	f := NewFMSecondOrder(5, 4)
	x := randInput(3, 20, 23)
	gradCheckInput(t, f, x, 3)
}

func TestCrossLayerKnown(t *testing.T) {
	c := NewCrossLayer(2, tensor.NewRNG(1))
	copy(c.W, []float32{1, 1})
	copy(c.B, []float32{0, 0})
	x0 := tensor.FromSlice(1, 2, []float32{1, 2})
	c.SetX0(x0)
	// x = x0: out = x0*(x·w) + b + x = (1,2)*3 + (1,2) = (4,8)
	out := c.Forward(x0)
	if out.Data[0] != 4 || out.Data[1] != 8 {
		t.Fatalf("got %v want [4 8]", out.Data)
	}
}

// crossAsLayer adapts CrossLayer for gradcheck by treating x0 == x (the
// first cross layer in a stack has exactly this form) and summing both
// gradient paths.
type crossAsLayer struct{ c *CrossLayer }

func (w *crossAsLayer) Forward(x *tensor.Matrix) *tensor.Matrix {
	w.c.SetX0(x)
	return w.c.Forward(x)
}
func (w *crossAsLayer) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := w.c.Backward(dout).Clone()
	dx.AddScaled(w.c.GradX0(), 1)
	return dx
}
func (w *crossAsLayer) Params() []Param { return w.c.Params() }

func TestCrossLayerGradients(t *testing.T) {
	c := &crossAsLayer{c: NewCrossLayer(5, tensor.NewRNG(31))}
	x := randInput(4, 5, 37)
	gradCheckInput(t, c, x, 20)
	gradCheckParams(t, c, x, 20)
}

func TestConcat2RoundTrip(t *testing.T) {
	a := tensor.FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := tensor.FromSlice(2, 3, []float32{5, 6, 7, 8, 9, 10})
	var c Concat2
	out := c.Forward2(a, b)
	if out.Cols != 5 || out.At(1, 2) != 8 || out.At(0, 1) != 2 {
		t.Fatalf("concat wrong: %+v", out.Data)
	}
	da, db := c.Backward2(out)
	if !da.Equal(a) || !db.Equal(b) {
		t.Fatal("backward split must recover the concatenated parts")
	}
}

func TestBCEWithLogitsKnown(t *testing.T) {
	logits := []float32{0, 0}
	labels := []float32{1, 0}
	d := make([]float32, 2)
	loss := BCEWithLogits(logits, labels, d)
	want := float32(math.Log(2))
	if math.Abs(float64(loss-want)) > 1e-6 {
		t.Fatalf("loss=%v want %v", loss, want)
	}
	// grad = (σ(0)−y)/2 = (0.5−1)/2, (0.5−0)/2
	if math.Abs(float64(d[0]+0.25)) > 1e-6 || math.Abs(float64(d[1]-0.25)) > 1e-6 {
		t.Fatalf("grads=%v", d)
	}
}

func TestBCEWithLogitsGradNumeric(t *testing.T) {
	rng := tensor.NewRNG(41)
	logits := make([]float32, 8)
	labels := make([]float32, 8)
	for i := range logits {
		logits[i] = rng.Float32()*4 - 2
		if rng.Float64() < 0.5 {
			labels[i] = 1
		}
	}
	d := make([]float32, 8)
	BCEWithLogits(logits, labels, d)
	const h = 1e-2
	tmp := make([]float32, 8)
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + h
		lp := BCEWithLogits(logits, labels, tmp)
		logits[i] = orig - h
		lm := BCEWithLogits(logits, labels, tmp)
		logits[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(float64(num-d[i])) > 1e-3 {
			t.Fatalf("BCE grad[%d]: analytic %v numeric %v", i, d[i], num)
		}
	}
}

func TestBCEStableAtExtremes(t *testing.T) {
	d := make([]float32, 2)
	loss := BCEWithLogits([]float32{50, -50}, []float32{1, 0}, d)
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct predictions should have ~0 loss, got %v", loss)
	}
}

func TestLogLossAndAccuracy(t *testing.T) {
	probs := []float32{0.9, 0.1}
	labels := []float32{1, 0}
	ll := LogLoss(probs, labels)
	want := float32(-math.Log(0.9))
	if math.Abs(float64(ll-want)) > 1e-5 {
		t.Fatalf("LogLoss=%v want %v", ll, want)
	}
	if acc := Accuracy([]float32{2, -2, 1}, []float32{1, 0, 0}); math.Abs(float64(acc)-2.0/3) > 1e-6 {
		t.Fatalf("Accuracy=%v", acc)
	}
	if LogLoss([]float32{0, 1}, []float32{0, 1}) <= 0 {
		t.Fatal("clamped logloss should be positive and finite")
	}
}

func TestZeroGrads(t *testing.T) {
	l := NewLinear(2, 2, tensor.NewRNG(1))
	x := randInput(2, 2, 1)
	out := l.Forward(x)
	l.Backward(out)
	ZeroGrads(l.Params())
	for _, p := range l.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("grad not zeroed")
			}
		}
	}
}
