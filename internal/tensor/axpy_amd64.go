package tensor

import "math"

// useAVX2 selects the vector row update: set once by init when the CPU has
// AVX2 and the OS saves the YMM registers. Otherwise amd64 takes the
// portable axpyRowsGo, as every other GOARCH does. Tests flip it to run both.
var useAVX2 bool

func init() {
	const osxsave, avx2 = 1 << 27, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM state.
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || xgetbv()&6 != 6 {
		return
	}
	_, ebx, _, _ := cpuid(7, 0)
	useAVX2 = ebx&avx2 != 0
}

// axpyRows is axpyRowsGo with the whole 4-lane vectors of d updated four
// multipliers at a time in AVX2. VMULPS and VADDPS round each lane as the
// scalar multiply and add do, so the two agree to the bit. The last
// len(coef) mod 4 multipliers go through axpyTail, the last len(d) mod 4
// columns through axpyRowsGo.
func axpyRows(d, b []float32, at []int, coef []float32) {
	if !useAVX2 {
		axpyRowsGo(d, b, at, coef)
		return
	}
	nv := len(d) &^ 3
	if nv > 0 {
		g := 0
		for ; g+4 <= len(coef); g += 4 {
			r := at[g : g+4 : g+4]
			axpy4AVX2(&d[0], &b[r[0]], &b[r[1]], &b[r[2]], &b[r[3]], (*[4]float32)(coef[g:]), nv)
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
		axpy4AVX2(&d[j0], p[0], p[1], p[2], p[3], &a, min(len(zeroRow), len(d)-j0))
	}
}

// axpy4AVX2 computes, for j < n,
//
//	d[j] = (((d[j] + a[0]·b0[j]) + a[1]·b1[j]) + a[2]·b2[j]) + a[3]·b3[j]
//
// 16 lanes a loop, then 8- and 4-lane tails. n must be a positive multiple
// of 4 and every row hold n elements.
//
//go:noescape
func axpy4AVX2(d, b0, b1, b2, b3 *float32, a *[4]float32, n int)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state the OS saves.
func xgetbv() (eax uint32)
