// Package tensor provides the dense float32 math substrate used by the
// neural-network layers in this repository: matrices, vectors, the matrix
// product, and deterministic random initialization.
//
// The package is deliberately small and allocation-conscious rather than
// feature-complete: every operation used by a layer has an explicit
// destination argument so steady-state training performs no per-iteration
// allocations.
//
// There is one product kernel (product, behind MatMul and MatMulNoSkip) and
// its summation order is a contract, because every engine in the repository
// is certified bit-identical to the no-cache baseline: each output element is
// the sum of its products in ascending k starting from +0, every multiply
// and every add rounded to float32 separately — never fused. MatMul skips
// zero multipliers, MatMulNoSkip does not; the products backpropagation needs
// in other layouts (xᵀ·dout, dout·Wᵀ) are Transpose followed by one of the
// two. On amd64 the inner loop is an SSE2 microkernel (axpy_amd64.s); on
// every other GOARCH, and for the columns and multipliers that do not fill a
// vector or a group, it is the portable axpyRowsGo, which tensor_test.go
// holds to the same bits as the three naive loop nests the kernel replaced.
// NaN payloads are outside the contract: any NaN equals any NaN.
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

// NumElements returns Rows*Cols.
func (m *Matrix) NumElements() int { return m.Rows * m.Cols }

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

// MatMul computes dst = a × b. dst must be a.Rows × b.Cols and must not
// alias a or b. Every dst[i][j] is the sum, formed in ascending k from +0,
// of the products a[i][k]·b[k][j] whose a[i][k] is not zero. The skip is
// arithmetic: a ±0 multiplier never meets an Inf or NaN in b (0·Inf is NaN).
func MatMul(dst, a, b *Matrix) { product(dst, a, b, true) }

// MatMulNoSkip is MatMul with every product added, zero multipliers too, so
// 0·Inf and 0·NaN reach dst: the input-gradient product dout × Wᵀ.
func MatMulNoSkip(dst, a, b *Matrix) { product(dst, a, b, false) }

// Transpose writes srcᵀ into dst, which must be src.Cols × src.Rows.
func Transpose(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: Transpose shape mismatch (%dx%d)ᵀ->(%dx%d)",
			src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
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
					o += dst.Cols
				}
			}
		}
	}
}

// kPass bounds how many multipliers product compacts before applying them,
// so its scratch is two fixed-size stack arrays whatever a.Cols is.
const kPass = 256

// product is the one product kernel. Per output row it compacts the
// multipliers that will be applied (all of them, or the non-zero ones) in
// ascending k and hands them to axpyRows. Each output element therefore
// receives the same products in the same order as the textbook i-k-j loop,
// each multiply and each add rounded to float32 on its own; compaction keeps
// rows that are half zeros (anything after a ReLU) on the vector path.
func product(dst, a, b *Matrix, skipZero bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	var coef [kPass]float32
	var at [kPass]int // where each multiplier's row of b starts in b.Data
	for i := 0; i < a.Rows; i++ {
		d := dst.Row(i)
		clear(d)
		arow := a.Row(i)
		for k0 := 0; k0 < len(arow); k0 += kPass {
			m := compact(&coef, &at, arow[k0:min(k0+kPass, len(arow))], k0*b.Cols, b.Cols, skipZero)
			axpyRows(d, b.Data, at[:m], coef[:m])
		}
	}
}

// compact copies the multipliers in arow (at most kPass) that will be applied
// into coef, and the offset of each one's row of b — off for arow[0], stride
// more for each next — into at, and returns how many there are. Every element
// is stored and the count then advanced or not, on an integer test (zero but
// for the sign bit), because post-ReLU zeros fall at random: a branch per
// element mispredicts on half of them and costs more than the arithmetic.
func compact(coef *[kPass]float32, at *[kPass]int, arow []float32, off, stride int, skipZero bool) int {
	var keepAll uint32
	if !skipZero {
		keepAll = 1
	}
	m := 0
	for _, av := range arow {
		coef[m], at[m] = av, off
		off += stride
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

// AddRowVector adds vector v to every row of m in place.
func AddRowVector(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector vector len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
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

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
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

// L2Norm returns the Euclidean norm of v.
func L2Norm(v []float32) float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
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

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	// Box-Muller transform; u1 in (0,1] to avoid log(0).
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
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
