// Package tensor provides the dense float32 math substrate used by the
// neural-network layers in this repository: matrices, vectors, the matrix
// product, and deterministic random initialization.
//
// The package is deliberately small and allocation-conscious rather than
// feature-complete: every operation used by a layer has an explicit
// destination argument so steady-state training performs no per-iteration
// allocations.
//
// There is one product kernel (product, behind MatMul, MatMulBias,
// MatMulNoSkip and MatMulTransA) and its summation order is a contract,
// because every engine in the repository is certified bit-identical to the
// no-cache baseline: each output element is the sum of its products in
// ascending k starting from +0, every multiply and every add rounded to
// float32 separately — never fused. MatMul skips zero multipliers,
// MatMulNoSkip does not; MatMulBias is MatMul with the bias add and the ReLU
// clamp applied to each row as it completes. The weight gradient xᵀ·dout is
// MatMulTransA, which reads x in place; the input gradient dout·Wᵀ is
// Transpose followed by MatMul, or by MatMulNoSkip when Transpose reports a
// non-finite weight. A finite one-column right operand (every model's logit
// layer) takes a vector path with the same bits: plain dot products, or for
// MatMulTransA the one-row product bᵀ·a. On an amd64 whose CPU and OS
// support AVX2, which init checks once, the inner loop is an AVX2
// microkernel (axpy_amd64.s); on any other amd64 and every other GOARCH,
// and for the columns that do not fill a vector, it is the portable
// axpyRowsGo, which tensor_test.go holds to the same bits as the three
// naive loop nests the kernel replaced. NaN payloads are outside the
// contract: any NaN equals any NaN.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and o have identical shape and elements.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// MatMul computes dst = a × b. dst must be a.Rows × b.Cols and must not
// alias a or b. Every dst[i][j] is the sum, formed in ascending k from +0,
// of the products a[i][k]·b[k][j] whose a[i][k] is not zero. The skip is
// arithmetic: a ±0 multiplier never meets an Inf or NaN in b (0·Inf is NaN).
func MatMul(dst, a, b *Matrix) { product(dst, rowsOf(a), b, true, nil, false) }

// MatMulTransA computes dst = aᵀ × b without transposing a: dst must be
// a.Cols × b.Cols and must not alias a or b. The kernel reads column i of a
// in place, so every dst[i][j] receives the products a[k][i]·b[k][j] whose
// a[k][i] is not zero, in ascending k from +0: the bits of MatMul on
// Transpose(a).
func MatMulTransA(dst, a, b *Matrix) { product(dst, colsOf(a), b, true, nil, false) }

// MatMulNoSkip is MatMul with every product added, zero multipliers too, so
// 0·Inf and 0·NaN reach dst: the input-gradient product dout × Wᵀ when W
// holds an Inf or a NaN. When every element of b is finite the two agree to
// the bit: a skipped 0·b is ±0, and a sum that starts at +0 never holds −0,
// so adding ±0 leaves it as it was.
func MatMulNoSkip(dst, a, b *Matrix) { product(dst, rowsOf(a), b, false, nil, false) }

// MatMulBias is MatMul followed, on each row of dst as soon as its sums are
// complete, by d[j] += bias[j] and then, if relu, by d[j] = d[j] > 0 ? d[j] :
// +0: a bias pass and a ReLU pass fused into the product's epilogue, with
// the same roundings in the same order. The clamp sends NaN and −0 to +0, so
// a clamped element's bits are non-zero exactly when the sum was > 0, which
// is the mask ReLUGrad reads back.
func MatMulBias(dst, a, b *Matrix, bias []float32, relu bool) {
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBias bias len %d != cols %d", len(bias), b.Cols))
	}
	product(dst, rowsOf(a), b, true, bias, relu)
}

// ReLUGrad writes into dst the gradient through the clamp of MatMulBias
// whose output was out: dout where out is non-zero, +0 where it is +0. The
// mask is arithmetic, because post-ReLU zeros fall at random and a branch
// per element mispredicts on half of them.
func ReLUGrad(dst, dout, out *Matrix) {
	if dst.Rows != out.Rows || dst.Cols != out.Cols || dout.Rows != out.Rows || dout.Cols != out.Cols {
		panic(fmt.Sprintf("tensor: ReLUGrad shape mismatch %dx%d, %dx%d, %dx%d",
			dst.Rows, dst.Cols, dout.Rows, dout.Cols, out.Rows, out.Cols))
	}
	g := dout.Data[:len(out.Data)]
	for i, o := range out.Data {
		// All ones when o's bits are non-zero, else zero.
		mask := -uint32((uint64(math.Float32bits(o)) + 1<<32 - 1) >> 32)
		dst.Data[i] = math.Float32frombits(math.Float32bits(g[i]) & mask)
	}
}

// Transpose writes srcᵀ into dst, which must be src.Cols × src.Rows, and
// reports whether every element it copied is finite: the test that lets the
// input gradient skip zero multipliers (see MatMulNoSkip).
func Transpose(dst, src *Matrix) (finite bool) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch (%dx%d)ᵀ->(%dx%d)",
			src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	// Bit 31 of exponent+1 is set only for an all-ones exponent (Inf, NaN).
	var nonFinite uint32
	// Tile by tile, so the strided writes of one tile stay within a few
	// cache lines that the next source row of the tile finds again.
	const tile = 16
	for i0 := 0; i0 < src.Rows; i0 += tile {
		i1 := min(i0+tile, src.Rows)
		for j0 := 0; j0 < src.Cols; j0 += tile {
			j1 := min(j0+tile, src.Cols)
			for i := i0; i < i1; i++ {
				o := j0*dst.Cols + i
				for _, v := range src.Data[i*src.Cols+j0 : i*src.Cols+j1] {
					dst.Data[o] = v
					nonFinite |= math.Float32bits(v)&0x7f800000 + 0x00800000
					o += dst.Cols
				}
			}
		}
	}
	return nonFinite>>31 == 0
}

// kPass bounds how many multipliers product compacts before applying them,
// so its scratch is two fixed-size stack arrays whatever the inner
// dimension is.
const kPass = 256

// operand is product's left operand read in place: element (i, k) is
// data[i*rs+k*cs]. A matrix is read by rows (cs 1), its transpose by
// columns (rs 1, cs the matrix's width), so no layout is ever copied.
type operand struct {
	data       []float32
	rows, cols int
	rs, cs     int
}

func rowsOf(m *Matrix) operand { return operand{m.Data, m.Rows, m.Cols, m.Cols, 1} }
func colsOf(m *Matrix) operand { return operand{m.Data, m.Cols, m.Rows, 1, m.Cols} }

// span returns the n elements of row i from column k on, cs apart: the
// slice from the first to the last of them.
func (a operand) span(i, k, n int) []float32 {
	s := i*a.rs + k*a.cs
	return a.data[s : s+(n-1)*a.cs+1]
}

// product is the one product kernel. Per output row it compacts the
// multipliers that will be applied (all of them, or the non-zero ones) in
// ascending k and hands them to axpyRows. Each output element therefore
// receives the same products in the same order as the textbook i-k-j loop,
// each multiply and each add rounded to float32 on its own; compaction keeps
// rows that are half zeros (anything after a ReLU) on the vector path. A
// non-nil bias is MatMulBias's epilogue, applied to a row once it is summed.
//
// A one-column b would put every row through compaction to feed a one-wide
// scalar update, so when b is finite — where a skipped 0·b is ±0 and taking
// every term changes no bit (see MatMulNoSkip) — it takes a vector path: a
// row-read a gives plain dot products, a column-read a the one-row product
// bᵀ·a, whose multipliers are all of b and whose rows of a are the
// microkernel's vectors. A b holding an Inf or a NaN keeps the general path,
// where a zero multiplier facing it is still skipped.
func product(dst *Matrix, a operand, b *Matrix, skipZero bool, bias []float32, relu bool) {
	if a.cols != b.Rows || dst.Rows != a.rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.rows, a.cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	switch {
	case b.Cols != 1 || !finite(b.Data):
		rowProducts(dst.Data, a, b.Data, b.Cols, skipZero, bias, relu)
	case a.cs == 1:
		dotRows(dst.Data, a, b.Data)
		if bias != nil {
			for i := range dst.Data {
				addBias(dst.Data[i:i+1], bias, relu)
			}
		}
	default:
		bT := operand{b.Data, 1, b.Rows, b.Rows, 1}
		rowProducts(dst.Data, bT, a.data, a.rows, false, nil, false)
	}
}

// rowProducts is product's loop: d (a.rows × n) = a × b (a.cols × n), both
// row-major.
func rowProducts(d []float32, a operand, b []float32, n int, skipZero bool, bias []float32, relu bool) {
	var coef [kPass]float32
	var at [kPass]int // where each multiplier's row of b starts in b
	for i := 0; i < a.rows; i++ {
		row := d[i*n : (i+1)*n]
		clear(row)
		for k0 := 0; k0 < a.cols; k0 += kPass {
			m := compact(&coef, &at, a.span(i, k0, min(kPass, a.cols-k0)), a.cs, k0*n, n, skipZero)
			axpyRows(row, b, at[:m], coef[:m])
		}
		if bias != nil {
			addBias(row, bias, relu)
		}
	}
}

// dotRows writes into d[i] the dot product of row i of a, which must be
// contiguous (cs 1), with b: every term, in ascending k from +0, each product
// converted to float32 before it is added so that no target fuses the two.
// Four rows at a time, so four independent sums hide the add latency.
func dotRows(d []float32, a operand, b []float32) {
	n := len(b)
	i := 0
	for ; i+4 <= a.rows; i += 4 {
		r0, r1 := a.data[i*a.rs:][:n], a.data[(i+1)*a.rs:][:n]
		r2, r3 := a.data[(i+2)*a.rs:][:n], a.data[(i+3)*a.rs:][:n]
		var s0, s1, s2, s3 float32
		for k, bv := range b {
			s0 += float32(r0[k] * bv)
			s1 += float32(r1[k] * bv)
			s2 += float32(r2[k] * bv)
			s3 += float32(r3[k] * bv)
		}
		d[i], d[i+1], d[i+2], d[i+3] = s0, s1, s2, s3
	}
	for ; i < a.rows; i++ {
		r := a.data[i*a.rs:][:n]
		var s float32
		for k, bv := range b {
			s += float32(r[k] * bv)
		}
		d[i] = s
	}
}

// finite reports whether every element of v is finite. Bit 31 of
// exponent+1 is set only for an all-ones exponent (Inf, NaN).
func finite(v []float32) bool {
	var nonFinite uint32
	for _, x := range v {
		nonFinite |= math.Float32bits(x)&0x7f800000 + 0x00800000
	}
	return nonFinite>>31 == 0
}

// addBias is the epilogue: d[j] += bias[j], then, if relu, the clamp
// d[j] > 0 ? d[j] : +0 computed on the bits. Unsigned, bits−1 is below the
// bits of +Inf exactly for the values > 0 (not ±0, not negative, not NaN),
// so the borrow out of (bits−1) − bits(+Inf) is the keep mask.
func addBias(d, bias []float32, relu bool) {
	bias = bias[:len(d)]
	if !relu {
		for j := range d {
			d[j] += bias[j]
		}
		return
	}
	for j, v := range d {
		u := math.Float32bits(v + bias[j])
		keep := -uint32((uint64(u-1) - 0x7f800000) >> 63)
		d[j] = math.Float32frombits(u & keep)
	}
}

// compact copies the multipliers in src that will be applied — src[0],
// src[stride], … to its end, at most kPass of them — into coef, and the
// offset of each one's row of b — off for the first, bstride more for each
// next — into at, and returns how many there are. Every element is stored
// and the count then advanced or not, on an integer test (zero but for the
// sign bit), because post-ReLU zeros fall at random: a branch per element
// mispredicts on half of them and costs more than the arithmetic.
func compact(coef *[kPass]float32, at *[kPass]int, src []float32, stride, off, bstride int, skipZero bool) int {
	var keepAll uint32
	if !skipZero {
		keepAll = 1
	}
	m := 0
	for p := 0; p < len(src); p += stride {
		av := src[p]
		coef[m], at[m] = av, off
		off += bstride
		if math.Float32bits(av)<<1|keepAll != 0 {
			m++
		}
	}
	return m
}

// axpyRowsGo is the portable row update, and the definition of the vector
// one: for every j,
//
//	d[j] = ((d[j] + coef[0]·b[at[0]+j]) + coef[1]·b[at[1]+j]) + …
//
// The float32 conversion is arithmetic, not style: the Go spec lets a target
// fuse x*y+z into one rounding (arm64, ppc64, s390x do) unless the product
// is explicitly converted, and a fused sum differs in the last bit.
func axpyRowsGo(d, b []float32, at []int, coef []float32) {
	at = at[:len(coef)]
	for j, s := range d {
		for g, c := range coef {
			s += float32(c * b[at[g]+j])
		}
		d[j] = s
	}
}

// ColSums accumulates per-column sums of m into dst (dst is overwritten).
func ColSums(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSums dst len %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// AddScaled computes m += s*o elementwise. Shapes must match.
func (m *Matrix) AddScaled(o *Matrix, s float32) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
}

// Dot returns the dot product of equal-length slices a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += a*x for equal-length slices.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// RNG is a splitmix64-based deterministic random number generator. It is
// intentionally independent of math/rand so that initialization is stable
// across Go releases, which the sync-equivalence tests rely on.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// XavierInit fills m with Xavier/Glorot-uniform values for a layer with the
// given fan-in and fan-out, using rng.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *RNG) {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
}

// UniformInit fills dst with uniform values in [-limit, limit].
func UniformInit(dst []float32, limit float32, rng *RNG) {
	for i := range dst {
		dst[i] = (rng.Float32()*2 - 1) * limit
	}
}
