package tensor

// axpyRows is axpyRowsGo with the whole 4-lane vectors of d updated four
// multipliers at a time in SSE2, which every amd64 has. MULPS and ADDPS round
// each lane as the scalar multiply and add do, so the two agree to the bit.
// The last len(coef) mod 4 multipliers and the last len(d) mod 4 columns go
// through axpyRowsGo.
func axpyRows(d, b []float32, at []int, coef []float32) {
	nv := len(d) &^ 3
	if nv > 0 {
		g := 0
		for ; g+4 <= len(coef); g += 4 {
			r := at[g : g+4 : g+4]
			axpy4SSE2(&d[0], &b[r[0]], &b[r[1]], &b[r[2]], &b[r[3]], (*[4]float32)(coef[g:]), nv)
		}
		axpyRowsGo(d[:nv], b, at[g:], coef[g:])
	}
	axpyRowsGo(d[nv:], b[nv:], at, coef)
}

// axpy4SSE2 computes, for j < n,
//
//	d[j] = (((d[j] + a[0]·b0[j]) + a[1]·b1[j]) + a[2]·b2[j]) + a[3]·b3[j]
//
// n must be a positive multiple of 4 and every row hold n elements.
//
//go:noescape
func axpy4SSE2(d, b0, b1, b2, b3 *float32, a *[4]float32, n int)
