package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2)=%v want 5", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 5 {
		t.Fatalf("Row(1)[2]=%v want 5", row[2])
	}
	row[0] = 7 // Row aliases storage
	if m.At(1, 0) != 7 {
		t.Fatalf("Row must alias storage")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul[%d]=%v want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

// The three loop nests product replaced, kept as the references it must
// match bit for bit: refMatMul is dst = a × b, refMatMulBT is a × bᵀ (no
// skipped multipliers), refMatMulAT is aᵀ × b. Their one edit is the explicit
// float32 around each product, which changes nothing on amd64, where they
// were pinned, and stops other targets fusing the multiply into the add.
func refMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulBT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k, av := range arow {
				s += float32(av * brow[k])
			}
			drow[j] = s
		}
	}
}

func refMatMulAT(dst, a, b *Matrix) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func transpose(m *Matrix) *Matrix {
	tm := NewMatrix(m.Cols, m.Rows)
	Transpose(tm, m)
	return tm
}

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// sameBits is the kernels' contract: identical bit patterns, except that any
// NaN equals any NaN (which operand's payload survives an x86 ADDSS depends
// on register allocation, and the default NaN's sign on the target).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		if g := got.Data[i]; !sameBits(g, w) {
			t.Fatalf("%s: element (%d,%d) is %v (%#08x), reference has %v (%#08x)", what,
				i/want.Cols, i%want.Cols, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// checkProductForms runs a × b through each form nn uses — MatMul, MatMul on
// a transposed left operand (the weight gradient), MatMulNoSkip on a
// transposed right operand (the input gradient) — against the loop nest that
// form replaced.
func checkProductForms(t *testing.T, a, b *Matrix) {
	t.Helper()
	got, want := NewMatrix(a.Rows, b.Cols), NewMatrix(a.Rows, b.Cols)
	// Stale contents must not leak into either result.
	for i := range got.Data {
		got.Data[i], want.Data[i] = float32(math.NaN()), float32(math.Inf(-1))
	}

	refMatMul(want, a, b)
	MatMul(got, a, b)
	requireSameBits(t, "MatMul", got, want)

	x := transpose(a) // what the layer holds; the kernel sees xᵀ
	refMatMulAT(want, x, b)
	MatMul(got, transpose(x), b)
	requireSameBits(t, "MatMul(xᵀ, ·) vs MatMulAT", got, want)

	w := transpose(b)
	refMatMulBT(want, a, w)
	MatMulNoSkip(got, a, transpose(w))
	requireSameBits(t, "MatMulNoSkip(·, wᵀ) vs MatMulBT", got, want)
}

// specials are the operands on which a reordered, fused or padded sum shows:
// signed zeros, denormals, infinities, NaN, and magnitudes that overflow or
// underflow when multiplied.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32, 1.1754944e-38,
	1, -1,
}

// fullMantissa spreads u over all 23 mantissa bits of a value in ±[1, 2), so
// products round and a fused multiply-add would differ in the last bit.
func fullMantissa(u uint64) float32 {
	return math.Float32frombits(0x3f800000 | uint32(u>>41) | uint32(u&1)<<31)
}

// seededMatrix draws mostly full-mantissa values with about one special in
// eight. zeroPattern ≥ 0 also shapes the zeros of each row in turn, starting
// at that pattern: all zero, none zero, alternating, as drawn.
func seededMatrix(rng *RNG, rows, cols, zeroPattern int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := range m.Row(i) {
			v := fullMantissa(rng.Uint64())
			if rng.Intn(8) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			if zeroPattern >= 0 {
				switch pattern := (i + zeroPattern) % 4; {
				case pattern == 0, pattern == 2 && j%2 == 0:
					v = specials[rng.Intn(2)] // +0 or −0
				case pattern == 1 && v == 0:
					v = 1
				}
			}
			m.Row(i)[j] = v
		}
	}
	return m
}

// Shapes straddle every boundary in the kernel: the 4-lane vector and its
// 8-lane unrolling (n), the group of four multipliers and the kPass
// compaction buffer (k), and one, two and a bench batch of output rows.
func TestProductMatchesReferenceBits(t *testing.T) {
	rng := NewRNG(29)
	for _, rows := range []int{1, 2, 128} {
		for _, k := range []int{1, 4, 5, 255, 256, 257} {
			for _, n := range []int{1, 3, 4, 5, 8, 13, 256, 257} {
				// With fewer rows than zero patterns, start at each in turn.
				for p := 0; p < 4 && (p == 0 || rows < 4); p++ {
					checkProductForms(t, seededMatrix(rng, rows, k, p), seededMatrix(rng, k, n, -1))
				}
			}
		}
	}
}

// The amd64 microkernel against the portable one on the same inputs (on
// other targets axpyRows is the portable one and this holds trivially).
func TestAxpyRowsMatchesPortable(t *testing.T) {
	rng := NewRNG(4)
	for n := 0; n <= 41; n++ {
		for m := 0; m <= 9; m++ {
			b := seededMatrix(rng, m+1, n, -1)
			got, want := NewMatrix(1, n), NewMatrix(1, n)
			copy(got.Data, b.Row(m))
			copy(want.Data, b.Row(m))
			at, coef := make([]int, m), seededMatrix(rng, 1, m, -1).Data
			for g := range at {
				at[g] = rng.Intn(m) * n // any order, repeats allowed
			}
			axpyRows(got.Data, b.Data, at, coef)
			axpyRowsGo(want.Data, b.Data, at, coef)
			requireSameBits(t, "axpyRows", got, want)
		}
	}
}

// fuzzMatrix decodes one byte per element, cycling through raw: values below
// len(specials) pick that special, the rest a full-mantissa value.
func fuzzMatrix(rows, cols int, raw []byte, at int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		c := raw[(at+i)%len(raw)]
		if int(c) < len(specials) {
			m.Data[i] = specials[c]
		} else {
			m.Data[i] = fullMantissa((uint64(c) + uint64(i)<<8) * 0x9E3779B97F4A7C15)
		}
	}
	return m
}

// FuzzMatMulRef is the equivalent-computation oracle turned on our own
// kernel: same operands through the naive loops and through product, same
// bits or it is a bug.
func FuzzMatMulRef(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), []byte{0, 2})                // 0·Inf: skipped by MatMul, NaN in the input gradient
	f.Add(uint8(0), uint16(1), uint8(0), []byte{1, 12, 2, 3})         // −0·Inf, then −1·−Inf
	f.Add(uint8(0), uint16(1), uint8(1), []byte{12, 12, 0, 0, 0, 0})  // every product −0: a sum from +0 stays +0
	f.Add(uint8(1), uint16(7), uint8(8), []byte{1, 200, 0, 77})       // alternating zero multipliers
	f.Add(uint8(3), uint16(257), uint8(12), []byte{9, 99, 4, 8})      // k past kPass, NaN and ±MaxFloat32 in both operands
	f.Add(uint8(2), uint16(4), uint8(2), []byte{5, 6, 7, 10, 8, 200}) // denormals × MaxFloat32, n mod 4 tail
	f.Fuzz(func(t *testing.T, rows uint8, k uint16, n uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		r, kk, nn := 1+int(rows%4), 1+int(k%300), 1+int(n%40)
		checkProductForms(t, fuzzMatrix(r, kk, raw, 0), fuzzMatrix(kk, nn, raw, r*kk))
	})
}

// The three forms form every sum in the same order, so on operands with no
// zero multiplier they agree with each other and with the textbook i-j-k
// dot product to the bit.
func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		want := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for kk := 0; kk < k; kk++ {
					s += float32(a.At(i, kk) * b.At(kk, j))
				}
				want.Set(i, j, s)
			}
		}
		checkProductForms(t, a, b)
		got := NewMatrix(m, n)
		MatMul(got, a, b)
		requireSameBits(t, "MatMul vs dot products", got, want)
	}
}

func TestTransposeShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Transpose(NewMatrix(2, 2), NewMatrix(2, 3))
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRowVector(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddRowVector[%d]=%v want %v", i, m.Data[i], w)
		}
	}
	sums := make([]float32, 3)
	ColSums(sums, m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums=%v", sums)
	}
}

func TestScaleAddScaledCloneEqual(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Scale(2)
	if m.Equal(c) {
		t.Fatal("scale mutated original or Equal broken")
	}
	m.AddScaled(c, 0.5) // m += 0.5*(2m) = 2m
	want := []float32{2, 4, 6}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddScaled[%d]=%v want %v", i, m.Data[i], w)
		}
	}
}

func TestDotAxpyNorm(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot=%v want 32", Dot(a, b))
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("Axpy=%v", y)
	}
	if math.Abs(float64(L2Norm([]float32{3, 4}))-5) > 1e-6 {
		t.Fatalf("L2Norm=%v want 5", L2Norm([]float32{3, 4}))
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(1)
	if err := quick.Check(func(_ int) bool {
		f := rng.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(99)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(3)
	m := NewMatrix(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := float32(math.Sqrt(6.0 / 20.0))
	var nonzero int
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Fatalf("only %d nonzero values; init looks broken", nonzero)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: MatMul is distributive over addition in the second operand:
// A×(B+C) == A×B + A×C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := NewRNG(12345)
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed) + rng.Uint64()%1000)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		c := randMatrix(r, k, n)
		bc := b.Clone()
		bc.AddScaled(c, 1)
		left := NewMatrix(m, n)
		MatMul(left, a, bc)
		ab := NewMatrix(m, n)
		MatMul(ab, a, b)
		ac := NewMatrix(m, n)
		MatMul(ac, a, c)
		ab.AddScaled(ac, 1)
		return left.AlmostEqual(ab, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
