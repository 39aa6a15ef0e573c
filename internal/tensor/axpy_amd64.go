package tensor

import "math"

// axpyRows is axpyRowsGo with the whole 4-lane vectors of d updated four
// multipliers at a time in SSE2, which every amd64 has. MULPS and ADDPS round
// each lane as the scalar multiply and add do, so the two agree to the bit.
// The last len(coef) mod 4 multipliers go through axpyTail, the last len(d)
// mod 4 columns through axpyRowsGo.
func axpyRows(d, b []float32, at []int, coef []float32) {
	nv := len(d) &^ 3
	if nv > 0 {
		g := 0
		for ; g+4 <= len(coef); g += 4 {
			r := at[g : g+4 : g+4]
			axpy4SSE2(&d[0], &b[r[0]], &b[r[1]], &b[r[2]], &b[r[3]], (*[4]float32)(coef[g:]), nv)
		}
		if g < len(coef) {
			axpyTail(d[:nv], b, at[g:], coef[g:])
		}
	}
	axpyRowsGo(d[nv:], b[nv:], at, coef)
}

// zeroRow is the row a padded group's missing multipliers read.
var zeroRow [1024]float32

// axpyTail applies the last 1–3 multipliers of a row as one group of four,
// padded with −0 coefficients over zeroRow. Each padding product is −0, and
// x + −0 is x for every x (−0 and NaN included), so the padding leaves every
// accumulator's bits as they were. len(d) must be a positive multiple of 4;
// rows wider than zeroRow are done a zeroRow's width at a time.
func axpyTail(d, b []float32, at []int, coef []float32) {
	negZero := math.Float32frombits(1 << 31)
	a := [4]float32{negZero, negZero, negZero, negZero}
	copy(a[:], coef)
	at = at[:len(coef)]
	for j0 := 0; j0 < len(d); j0 += len(zeroRow) {
		p := [4]*float32{&zeroRow[0], &zeroRow[0], &zeroRow[0], &zeroRow[0]}
		for g, o := range at {
			p[g] = &b[o+j0]
		}
		axpy4SSE2(&d[j0], p[0], p[1], p[2], p[3], &a, min(len(zeroRow), len(d)-j0))
	}
}

// axpy4SSE2 computes, for j < n,
//
//	d[j] = (((d[j] + a[0]·b0[j]) + a[1]·b1[j]) + a[2]·b2[j]) + a[3]·b3[j]
//
// n must be a positive multiple of 4 and every row hold n elements.
//
//go:noescape
func axpy4SSE2(d, b0, b1, b2, b3 *float32, a *[4]float32, n int)
