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

// The fused ReLU's gradients, through an identity Linear so that every
// pre-activation is an input kept away from the kink at 0: a perturbation of
// h·|x| ≤ 1e-2 in either x or W never crosses it.
func TestReLUGradients(t *testing.T) {
	m := NewMLP([]int{6, 6}, true, tensor.NewRNG(5))
	l := m.layers[0]
	l.W.Zero()
	for i := 0; i < 6; i++ {
		l.W.Set(i, i, 1)
	}
	x := randInput(4, 6, 5)
	for i := range x.Data {
		if x.Data[i] > -0.05 && x.Data[i] < 0.05 {
			x.Data[i] = 0.3
		}
	}
	gradCheckInput(t, m, x, 24)
	gradCheckParams(t, m, x, 24)
}

// fusedSpecials are the values a clamp or a mask computed on bits could get
// wrong: both zeros, both smallest denormals, both infinities, NaN of either
// sign, the largest finite magnitudes, and two ordinary values.
var fusedSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), float32(math.Copysign(math.NaN(), -1)),
	math.MaxFloat32, -math.MaxFloat32,
	1.5, -0.75,
}

func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// The fused forward and the masked backward of a ReLU Linear against the
// branchy passes they replaced (product, bias add, if v > 0), on every
// pairing of special weight and special bias at x = 1, −1 and 0, with
// special upstream gradients. The input gradient is held to the unskipped
// dot product both with every special in W (the fallback) and with only the
// finite ones (the skip path).
func TestFusedReLUSpecialValues(t *testing.T) {
	var finite []float32
	for _, v := range fusedSpecials {
		if !math.IsInf(float64(v), 0) && v == v {
			finite = append(finite, v)
		}
	}
	xs := []float32{1, -1, 0}
	for _, ws := range [][]float32{fusedSpecials, finite} {
		n := len(ws) * len(fusedSpecials)
		l := NewLinear(1, n, tensor.NewRNG(1))
		l.relu = true
		for j := 0; j < n; j++ {
			l.W.Data[j], l.B[j] = ws[j/len(fusedSpecials)], fusedSpecials[j%len(fusedSpecials)]
		}
		x := tensor.FromSlice(len(xs), 1, append([]float32(nil), xs...))
		out := l.Forward(x)
		dout := tensor.NewMatrix(len(xs), n)
		for i := range dout.Data {
			dout.Data[i] = fusedSpecials[(i*7)%len(fusedSpecials)]
		}
		l.Backward(dout)
		for i, xv := range xs {
			var dx float32
			for j := 0; j < n; j++ {
				var pre float32
				if xv != 0 {
					pre += float32(xv * l.W.Data[j])
				}
				pre += l.B[j]
				want, g := float32(0), float32(0)
				if pre > 0 {
					want, g = pre, dout.At(i, j)
				}
				if got := out.At(i, j); !sameBits(got, want) {
					t.Fatalf("x=%v w=%v b=%v: forward %v (%#08x), reference %v (%#08x)",
						xv, l.W.Data[j], l.B[j], got, math.Float32bits(got), want, math.Float32bits(want))
				}
				if got := l.dpre.At(i, j); !sameBits(got, g) {
					t.Fatalf("x=%v w=%v b=%v dout=%v: masked gradient %v (%#08x), reference %v (%#08x)",
						xv, l.W.Data[j], l.B[j], dout.At(i, j), got, math.Float32bits(got), g, math.Float32bits(g))
				}
				dx += float32(g * l.W.Data[j])
			}
			if got := l.dx.At(i, 0); !sameBits(got, dx) {
				t.Fatalf("x=%v: dx %v (%#08x), unskipped reference %v (%#08x)",
					xv, got, math.Float32bits(got), dx, math.Float32bits(dx))
			}
		}
	}
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
// upstream gradient is still multiplied through a non-finite W (0·Inf and
// 0·NaN poison dx) and skipped through a finite one, where it adds ±0 to a
// sum that started at +0 and leaves the same bits.
func TestLinearBackwardZeroTimesInf(t *testing.T) {
	inf, nan, negZero := float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))
	l := NewLinear(2, 2, tensor.NewRNG(1))
	for _, c := range []struct{ w, dout, want []float32 }{
		{[]float32{1, inf, 3, 4}, []float32{1, 0}, []float32{nan, 3}}, // dx[0] = 1·1 + 0·Inf
		{[]float32{1, 2, 3, nan}, []float32{1, 0}, []float32{1, nan}}, // dx[1] = 1·3 + 0·NaN
		{[]float32{1, 2, 3, 4}, []float32{negZero, 2}, []float32{4, 8}},
		{[]float32{1, 2, 3, 4}, []float32{negZero, 0}, []float32{0, 0}}, // +0, not −0
	} {
		copy(l.W.Data, c.w)
		l.Forward(tensor.FromSlice(1, 2, []float32{0, 1}))
		dx := l.Backward(tensor.FromSlice(1, 2, c.dout))
		for i, w := range c.want {
			if !sameBits(dx.Data[i], w) {
				t.Fatalf("W=%v dout=%v: dx=%v, want %v", c.w, c.dout, dx.Data, c.want)
			}
		}
	}
	copy(l.W.Data, []float32{1, inf, 3, 4})
	l.Forward(tensor.FromSlice(1, 2, []float32{0, 1}))
	ZeroGrads(l.Params())
	l.Backward(tensor.FromSlice(1, 2, []float32{inf, 2}))
	if want := []float32{0, 0, inf, 2}; !tensor.FromSlice(2, 2, want).Equal(l.GradW) { // row 0 = 0·[Inf 2], skipped
		t.Fatalf("GradW=%v, want %v", l.GradW.Data, want)
	}

	// A logit layer (one output column) takes the kernel's vector path only
	// while the one-column operand is finite, so the same zeros still skip.
	head := NewLinear(2, 1, tensor.NewRNG(1))
	copy(head.W.Data, []float32{inf, 2})
	x := tensor.FromSlice(2, 2, []float32{0, 1, 3, 0})
	out := head.Forward(x)
	for i, w := range []float32{2, inf} { // 0·Inf + 1·2, then 3·Inf + 0·2
		if !sameBits(out.Data[i], w) {
			t.Fatalf("one-column forward with W=[Inf 2]: out=%v, want [2 +Inf]", out.Data)
		}
	}
	copy(head.W.Data, []float32{1, 2})
	head.Forward(x)
	ZeroGrads(head.Params())
	head.Backward(tensor.FromSlice(2, 1, []float32{inf, 0}))
	for i, w := range []float32{0, inf} { // 0·Inf (skipped) + 3·0, then 1·Inf + 0·0 (skipped)
		if !sameBits(head.GradW.Data[i], w) {
			t.Fatalf("one-column GradW=%v, want [+0 +Inf]", head.GradW.Data)
		}
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

// LogLoss computes the mean binary cross-entropy given probabilities
// already passed through a sigmoid. Probabilities are clamped away from
// 0 and 1 for stability. Used for evaluation, not training.
func LogLoss(probs, labels []float32) float32 {
	if len(probs) != len(labels) {
		panic("nn: LogLoss length mismatch")
	}
	const eps = 1e-7
	var total float64
	for i, p := range probs {
		pf := math.Min(math.Max(float64(p), eps), 1-eps)
		if labels[i] > 0.5 {
			total += -math.Log(pf)
		} else {
			total += -math.Log(1 - pf)
		}
	}
	return float32(total / float64(len(probs)))
}

// Accuracy returns the fraction of logits whose sign matches the label
// (logit > 0 predicts class 1).
func Accuracy(logits, labels []float32) float32 {
	if len(logits) != len(labels) {
		panic("nn: Accuracy length mismatch")
	}
	correct := 0
	for i, z := range logits {
		pred := float32(0)
		if z > 0 {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	return float32(correct) / float32(len(logits))
}
