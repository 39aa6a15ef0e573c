package collective

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file is the all-gather's chunk coding: an owner sends its newly
// stepped chunk as the XOR of each float's bits against the chunk it sent
// the round before, which every receiver still holds in its own parameters.
// One SGD step moves a parameter's low mantissa bits and seldom its sign or
// exponent, so most XOR words have only their low one or two bytes set.
// Each word travels as its significant low bytes only (Gorilla's XOR float
// coding, Pelkonen et al., VLDB 2015, at byte granularity):
//
//	tags   ⌈n/4⌉ bytes; float k's 2-bit tag is bits 2(k%4)..2(k%4)+1 of
//	       byte k/4 and holds its count of significant bytes minus one
//	       (a zero word counts 1); the bits past the n-th tag are zero
//	bytes  each word's significant bytes, low byte first, back to back
//
// A receiver XORs each word into the float it holds, so it ends with the
// owner's bits exactly: the coding is lossless on every bit pattern (±0,
// NaN payloads, ±Inf, subnormals), and needs no raw fallback. A word of
// four significant bytes costs its 4 bytes, so a chunk is at most 1/16
// larger than its raw floats (PackedBound).

// PackedBound is the most bytes Pack writes for n floats: their ⌈n/4⌉ tag
// bytes and four bytes each.
func PackedBound(n int) int { return (n+3)/4 + 4*n }

// sigBytes[bits.Len32(w)] is the count of significant low bytes of the
// word w, 1 for a zero word.
var sigBytes = func() (t [33]uint8) {
	for l := range t {
		t[l] = uint8(max(1, (l+7)/8))
	}
	return t
}()

// Pack appends to dst the coding of the concatenation's floats [lo,
// lo+len(prev)) of segs against prev, the floats it replaces, and then
// copies those floats into prev, all in one pass.
func Pack(dst []byte, segs [][]float32, lo int, prev []float32) []byte {
	n := len(prev)
	start, nt := len(dst), (n+3)/4
	dst = slices.Grow(dst, PackedBound(n))[:start+PackedBound(n)]
	tags, body := dst[start:start+nt], dst[start+nt:]
	clear(tags)
	pos := 0
	Pieces(segs, lo, lo+n, func(i, a, b, off int) {
		pos = packSpan(tags, body, pos, off, segs[i][a:b], prev[off:off+b-a])
	})
	return dst[:start+nt+pos]
}

// packSpan codes cur, floats k.. of the chunk, against prev into tags and
// body from byte pos, refreshes prev, and returns the next byte position.
// Every word is stored as four bytes and the position advances by its
// significant ones: body holds four bytes per float, so the store never
// runs past it. Four floats whose tags share a byte are coded together.
func packSpan(tags, body []byte, pos, k int, cur, prev []float32) int {
	prev = prev[:len(cur)]
	j := 0
	for ; j < len(cur) && (k+j)&3 != 0; j++ {
		pos = packOne(tags, body, pos, k+j, cur[j], &prev[j])
	}
	for ; j+4 <= len(cur); j += 4 {
		c, p := cur[j:j+4:j+4], prev[j:j+4:j+4]
		w0 := math.Float32bits(c[0]) ^ math.Float32bits(p[0])
		w1 := math.Float32bits(c[1]) ^ math.Float32bits(p[1])
		w2 := math.Float32bits(c[2]) ^ math.Float32bits(p[2])
		w3 := math.Float32bits(c[3]) ^ math.Float32bits(p[3])
		copy(p, c)
		n0, n1 := int(sigBytes[bits.Len32(w0)]), int(sigBytes[bits.Len32(w1)])
		n2, n3 := int(sigBytes[bits.Len32(w2)]), int(sigBytes[bits.Len32(w3)])
		tags[(k+j)>>2] = byte(n0 - 1 | (n1-1)<<2 | (n2-1)<<4 | (n3-1)<<6)
		// The words before float k+j took at most 4(k+j) bytes, so the
		// group's 16 bytes end within body's 4n.
		g := body[pos : pos+16 : pos+16]
		binary.LittleEndian.PutUint32(g, w0)
		binary.LittleEndian.PutUint32(g[n0&7:], w1)
		binary.LittleEndian.PutUint32(g[(n0+n1)&15:], w2)
		binary.LittleEndian.PutUint32(g[(n0+n1+n2)&15:], w3)
		pos += n0 + n1 + n2 + n3
	}
	for ; j < len(cur); j++ {
		pos = packOne(tags, body, pos, k+j, cur[j], &prev[j])
	}
	return pos
}

// packOne codes float k alone: a chunk's stretch that does not start or
// end on a tag byte's boundary.
func packOne(tags, body []byte, pos, k int, cur float32, prev *float32) int {
	w := math.Float32bits(cur) ^ math.Float32bits(*prev)
	*prev = cur
	n := int(sigBytes[bits.Len32(w)])
	tags[k>>2] |= byte(n-1) << (2 * (k & 3))
	binary.LittleEndian.PutUint32(body[pos:], w)
	return pos + n
}

// groupBytes[t] is the bytes the four floats whose tags form byte t take,
// and groupOffs[t] where the second, third and fourth of them start,
// relative to the first, in its bytes 1, 2 and 3.
var groupBytes, groupOffs = func() (g [256]uint8, o [256]uint32) {
	for t := range g {
		at := 0
		for s := range 4 {
			o[t] |= uint32(at) << (8 * s)
			at += t>>(2*s)&3 + 1
		}
		g[t] = uint8(at)
	}
	return g, o
}()

// wordMask[t] keeps the significant bytes of a word whose tag is t.
var wordMask = [4]uint32{0xff, 0xffff, 0xffffff, 0xffffffff}

// CheckPacked refuses src unless it is a whole coding of n floats: its tag
// bytes, with nothing set past the n-th tag, then exactly the bytes they
// claim. Unpack may then read src without running short.
func CheckPacked(src []byte, n int) error {
	if n < 0 || n > len(src) { // each float takes at least one byte
		return fmt.Errorf("collective: %d packed bytes cannot code %d floats", len(src), n)
	}
	nt := (n + 3) / 4
	tags := src[:nt]
	want := 0
	for _, t := range tags[:n/4] {
		want += int(groupBytes[t])
	}
	if r := n & 3; r != 0 {
		t := tags[n/4]
		if t>>(2*r) != 0 {
			return fmt.Errorf("collective: tag bits set past float %d", n)
		}
		want += int(groupBytes[t]) - (4 - r)
	}
	if got := len(src) - nt; got != want {
		return fmt.Errorf("collective: tags of %d floats claim %d bytes, %d present", n, want, got)
	}
	return nil
}

// Unpack XORs the n words src codes into the concatenation of segs at lo:
// if those floats are the ones the coding was packed against, they become
// the packed floats, bit for bit. src must pass CheckPacked for n.
func Unpack(segs [][]float32, lo, n int, src []byte) {
	nt := (n + 3) / 4
	tags, body := src[:nt], src[nt:]
	pos := 0
	Pieces(segs, lo, lo+n, func(i, a, b, off int) {
		pos = unpackSpan(tags, body, pos, off, segs[i][a:b])
	})
}

// unpackSpan XORs the words of floats k.. of the chunk, from byte pos of
// body, into dst, and returns the next byte position.
func unpackSpan(tags, body []byte, pos, k int, dst []float32) int {
	j := 0
	for ; j < len(dst) && (k+j)&3 != 0; j++ {
		pos = unpackOne(tags, body, pos, k+j, &dst[j])
	}
	// A word loads as four bytes and is masked to its own while the group
	// has 16 bytes to read; the last groups of the body take the byte-wise
	// path.
	for ; j+4 <= len(dst) && pos+16 <= len(body); j += 4 {
		d := dst[j : j+4 : j+4]
		t := tags[(k+j)>>2]
		o := groupOffs[t]
		g := body[pos : pos+16 : pos+16]
		w0 := binary.LittleEndian.Uint32(g) & wordMask[t&3]
		w1 := binary.LittleEndian.Uint32(g[o>>8&15:]) & wordMask[t>>2&3]
		w2 := binary.LittleEndian.Uint32(g[o>>16&15:]) & wordMask[t>>4&3]
		w3 := binary.LittleEndian.Uint32(g[o>>24&15:]) & wordMask[t>>6]
		d[0] = math.Float32frombits(math.Float32bits(d[0]) ^ w0)
		d[1] = math.Float32frombits(math.Float32bits(d[1]) ^ w1)
		d[2] = math.Float32frombits(math.Float32bits(d[2]) ^ w2)
		d[3] = math.Float32frombits(math.Float32bits(d[3]) ^ w3)
		pos += int(groupBytes[t])
	}
	for ; j < len(dst); j++ {
		pos = unpackOne(tags, body, pos, k+j, &dst[j])
	}
	return pos
}

// unpackOne XORs float k's word into *dst, reading only its own bytes.
func unpackOne(tags, body []byte, pos, k int, dst *float32) int {
	n := int(tags[k>>2]>>(2*(k&3))&3) + 1
	var w uint32
	for i, c := range body[pos : pos+n] {
		w |= uint32(c) << (8 * i)
	}
	*dst = math.Float32frombits(math.Float32bits(*dst) ^ w)
	return pos + n
}
