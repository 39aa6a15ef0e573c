package tensor

import "testing"

// BenchmarkProduct times the three products of one 256×256 layer of the
// benchmark's wd tower at its per-trainer batch of 128 rows: the forward
// x·W with bias and ReLU, the weight gradient xᵀ·dout and the input
// gradient dout·Wᵀ (Transpose, then the product), as nn.Linear runs them.
// x and dout hold about half zeros, as they do after a ReLU and its mask.
// GFLOP/s counts the multiply-adds the kernel executes: two flops per
// output column for each non-zero multiplier.
func BenchmarkProduct(b *testing.B) {
	const rows, in, out = 128, 256, 256
	rng := NewRNG(7)
	halfZero := func(m *Matrix) *Matrix {
		for i := range m.Data {
			if rng.Intn(2) == 0 {
				m.Data[i] = rng.Float32()*2 - 1
			}
		}
		return m
	}
	x, dout := halfZero(NewMatrix(rows, in)), halfZero(NewMatrix(rows, out))
	w := NewMatrix(in, out)
	XavierInit(w, in, out, rng)
	bias := make([]float32, out)
	y, gw, wT, dx := NewMatrix(rows, out), NewMatrix(in, out), NewMatrix(out, in), NewMatrix(rows, in)
	nonZero := func(m *Matrix) float64 {
		n := 0
		for _, v := range m.Data {
			if v != 0 {
				n++
			}
		}
		return float64(n)
	}
	for _, c := range []struct {
		name  string
		flops float64
		run   func()
	}{
		{"forward", 2 * nonZero(x) * out, func() { MatMulBias(y, x, w, bias, true) }},
		{"weight-grad", 2 * nonZero(x) * out, func() { MatMulTransA(gw, x, dout) }},
		{"input-grad", 2 * nonZero(dout) * in, func() {
			Transpose(wT, w)
			MatMul(dx, dout, wT)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				c.run()
			}
			b.ReportMetric(c.flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
