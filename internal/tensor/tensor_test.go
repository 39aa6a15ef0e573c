package tensor

import (
	"fmt"
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
	for name, f := range map[string]func(){
		"MatMul":       func() { MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2)) },
		"MatMulTransA": func() { MatMulTransA(NewMatrix(3, 2), NewMatrix(2, 3), NewMatrix(3, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
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

// refBiasReLU is the bias pass and the branchy ReLU pass MatMulBias fuses.
func refBiasReLU(m *Matrix, bias []float32, relu bool) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
			if relu {
				if row[j] > 0 {
					continue
				}
				row[j] = 0
			}
		}
	}
}

func allFinite(m *Matrix) bool {
	for _, v := range m.Data {
		if math.IsInf(float64(v), 0) || v != v {
			return false
		}
	}
	return true
}

// checkProductForms runs a × b through each form nn uses — MatMul, MatMulBias
// with and without the clamp (the forward, biased by b's last row),
// MatMulTransA and MatMul on a transposed left operand (the weight gradient),
// MatMulNoSkip on a transposed right operand (the input gradient) and, when
// that operand is finite, MatMul on it — against the loop nest that form
// replaced. A one-column b puts MatMul, MatMulBias and MatMulTransA on their
// vector path when it is finite, and keeps them off it when it is not.
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

	bias := b.Row(b.Rows - 1)
	for _, relu := range []bool{false, true} {
		refMatMul(want, a, b)
		refBiasReLU(want, bias, relu)
		MatMulBias(got, a, b, bias, relu)
		requireSameBits(t, fmt.Sprintf("MatMulBias(relu=%v)", relu), got, want)
	}

	x := transpose(a) // what the layer holds; the kernel sees xᵀ
	refMatMulAT(want, x, b)
	MatMul(got, transpose(x), b)
	requireSameBits(t, "MatMul(xᵀ, ·) vs MatMulAT", got, want)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	MatMulTransA(got, x, b)
	requireSameBits(t, "MatMulTransA vs MatMulAT", got, want)

	w := transpose(b)
	refMatMulBT(want, a, w)
	MatMulNoSkip(got, a, transpose(w))
	requireSameBits(t, "MatMulNoSkip(·, wᵀ) vs MatMulBT", got, want)

	// The input gradient's skip rule: Transpose reports b finite exactly when
	// it is, and then MatMul gives MatMulNoSkip's bits.
	bT := NewMatrix(w.Cols, w.Rows)
	if finite := Transpose(bT, w); finite != allFinite(w) {
		t.Fatalf("Transpose reported finite=%v for an operand that is %v", finite, allFinite(w))
	} else if finite {
		MatMul(got, a, bT)
		requireSameBits(t, "MatMul(·, finite wᵀ) vs MatMulBT", got, want)
	}
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
// 8- and 16-lane widths (n), the group of four multipliers and the kPass
// compaction buffer (k), and one, two and a bench batch of output rows.
// From k = 255 on both operands are tamed with one special planted each:
// at one special in eight, nearly every sum that long is already Inf or NaN
// and would hide a wrong term. It runs once per selectable row kernel.
func TestProductMatchesReferenceBits(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := NewRNG(29)
		for _, rows := range []int{1, 2, 128} {
			for _, k := range []int{1, 4, 5, 255, 256, 257} {
				for _, n := range []int{1, 3, 4, 5, 8, 13, 256, 257} {
					// With fewer rows than zero patterns, start at each in turn.
					for p := 0; p < 4 && (p == 0 || rows < 4); p++ {
						a, b := seededMatrix(rng, rows, k, p), seededMatrix(rng, k, n, -1)
						if k >= 255 {
							a, b = plant(rng, tame(rng, a)), plant(rng, tame(rng, b))
						}
						checkProductForms(t, a, b)
					}
				}
			}
		}
	})
}

// tame replaces m's Inf, NaN and ±MaxFloat32 by full-mantissa values.
// seededMatrix puts about one special in eight, so past a few dozen terms
// nearly every sum is already Inf or NaN and would hide a wrong term; a tamed
// operand keeps its sums finite.
func tame(rng *RNG, m *Matrix) *Matrix {
	for i, v := range m.Data {
		if math.IsInf(float64(v), 0) || v != v || math.Abs(float64(v)) == math.MaxFloat32 {
			m.Data[i] = fullMantissa(rng.Uint64())
		}
	}
	return m
}

// plant puts one special at a random element of a tamed m, so one row or
// column of the product meets it and the others stay finite.
func plant(rng *RNG, m *Matrix) *Matrix {
	m.Data[rng.Intn(len(m.Data))] = specials[rng.Intn(len(specials))]
	return m
}

// One-column b on both sides of its finiteness test, at row counts that
// leave every tail of the four-row dot-product blocks, each zero pattern in
// each position of a block, and inner sizes either side of kPass and of the
// wd head (672). A finite b takes the dot products and the one-row product
// bᵀ·a; a single Inf or NaN sends the same operands back to the general path.
func TestOneColumnProductsMatchReference(t *testing.T) {
	rng := NewRNG(43)
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 128, 257} {
		for _, k := range []int{1, 3, 4, 255, 256, 257, 672} {
			for p := 0; p < 4; p++ {
				a := plant(rng, tame(rng, seededMatrix(rng, rows, k, p)))
				b := tame(rng, seededMatrix(rng, k, 1, -1))
				checkProductForms(t, a, b)
				for _, bad := range specials[2:5] {
					nb := b.Clone()
					nb.Data[rng.Intn(k)] = bad
					checkProductForms(t, a, nb)
				}
				// An Inf multiplier facing a zero of a finite b is NaN on every
				// path: the vector paths take b's zeros as multipliers too.
				z := rng.Intn(k)
				b.Data[z] = 0
				a.Set(rng.Intn(rows), z, float32(math.Inf(1)))
				checkProductForms(t, a, b)
			}
		}
	}
}

// Every form past kPass multipliers, so that each output row is compacted in
// two or three passes (strided ones for MatMulTransA, whose a has more than
// kPass rows), at output row counts that leave each rows mod 4 tail.
func TestProductFormsPastKPass(t *testing.T) {
	rng := NewRNG(44)
	for _, k := range []int{257, 300, 513} {
		for _, m := range []int{4, 5, 6, 7, 13} {
			for _, n := range []int{1, 3, 8, 13} {
				a := plant(rng, tame(rng, seededMatrix(rng, m, k, m%4)))
				checkProductForms(t, a, plant(rng, tame(rng, seededMatrix(rng, k, n, -1))))
			}
		}
	}
}

// The selected row kernel against the portable one on the same inputs,
// once per kernel the host can select (the portable run holds trivially).
// Widths 0–41 leave every 16-, 8- and 4-lane tail; widths past zeroRow's
// take the padded tail a chunk at a time, and m mod 4 of 1–3 pads it; the
// accumulators start from seeded values, ±0, ±Inf and NaN among them.
func TestAxpyRowsMatchesPortable(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := NewRNG(4)
		widths := []int{1023, 1024, 1025, 1028, 2053}
		for n := 0; n <= 41; n++ {
			widths = append(widths, n)
		}
		for _, n := range widths {
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
	})
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
	// One, two and three multipliers past a group of four at widths ≥ 4, the
	// padded tail's inputs: sums of ±MaxFloat32 products, which overflow to
	// +Inf, or mix +Inf with −Inf into NaN, the last with a −0 multiplier
	// that only MatMulNoSkip applies.
	f.Add(uint8(0), uint16(4), uint8(7), []byte{8})
	f.Add(uint8(1), uint16(5), uint8(4), []byte{8, 9, 8})
	f.Add(uint8(0), uint16(6), uint8(11), []byte{9, 9, 1, 200, 8})
	// One-column b, finite and not, under five to seven rows: a full block
	// of four dot products and a tail, a zero multiplier facing +Inf, and
	// the one-row product over a zero activation.
	f.Add(uint8(4), uint16(3), uint8(0), []byte{0, 200, 12, 77, 1})
	f.Add(uint8(5), uint16(9), uint8(0), []byte{0, 2, 200, 0})
	f.Add(uint8(6), uint16(257), uint8(0), []byte{4, 99, 0, 8, 150})
	f.Fuzz(func(t *testing.T, rows uint8, k uint16, n uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		r, kk, nn := 1+int(rows%8), 1+int(k%300), 1+int(n%40)
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

func TestColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{11, 22, 33, 14, 25, 36})
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
	c.AddScaled(m, 1) // c = 2m
	if m.Equal(c) {
		t.Fatal("AddScaled mutated its operand or Equal broken")
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

// AlmostEqual reports whether m and o have identical shape and elementwise
// absolute difference at most eps.
func (m *Matrix) AlmostEqual(o *Matrix, eps float32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}
