package collective

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// f32 is the float with bit pattern b.
func f32(b uint32) float32 { return math.Float32frombits(b) }

// packRoundTrip packs cur against prev as one chunk of a concatenation split
// into segments of the lengths in split, starting lo floats in, and unpacks
// it into a receiver holding prev there. It fails unless the receiver ends
// with cur's bits, prev is refreshed to cur, the coding passes CheckPacked
// and its length is the tags plus each word's significant bytes. It returns
// the coding.
func packRoundTrip(t *testing.T, prev, cur []float32, lo int, split []int) []byte {
	t.Helper()
	n := len(cur)
	total := 0
	for _, s := range split {
		total += s
	}
	if lo+n > total {
		t.Fatalf("chunk [%d, %d) past the %d floats of %v", lo, lo+n, total, split)
	}
	segsOf := func(chunk []float32) [][]float32 {
		var segs [][]float32
		base := 0
		for _, s := range split {
			seg := make([]float32, s)
			for i := range seg {
				if k := base + i - lo; k >= 0 && k < n {
					seg[i] = chunk[k]
				} else {
					seg[i] = f32(uint32(base + i)) // outside the chunk: must not move
				}
			}
			segs = append(segs, seg)
			base += s
		}
		return segs
	}
	owner, recv := segsOf(cur), segsOf(prev)
	held := append([]float32(nil), prev...)
	packed := Pack([]byte{0xAA}, owner, lo, held)
	if packed[0] != 0xAA {
		t.Fatalf("Pack overwrote the buffer's first byte with %#02x", packed[0])
	}
	packed = packed[1:]
	if err := CheckPacked(packed, n); err != nil {
		t.Fatalf("Pack wrote a coding CheckPacked refuses: %v", err)
	}
	want := (n + 3) / 4
	for i := range cur {
		want += max(1, (bits.Len32(math.Float32bits(cur[i])^math.Float32bits(prev[i]))+7)/8)
	}
	if len(packed) != want || len(packed) > PackedBound(n) {
		t.Fatalf("%d floats packed into %d bytes, want %d (bound %d)", n, len(packed), want, PackedBound(n))
	}
	Unpack(recv, lo, n, packed)
	want32 := segsOf(cur)
	for s := range recv {
		for i := range recv[s] {
			if g, w := math.Float32bits(recv[s][i]), math.Float32bits(want32[s][i]); g != w {
				t.Fatalf("segment %d float %d unpacked to %#08x, want %#08x", s, i, g, w)
			}
		}
	}
	for i := range held {
		if math.Float32bits(held[i]) != math.Float32bits(cur[i]) {
			t.Fatalf("prev[%d] = %#08x after Pack, want the packed float %#08x", i, math.Float32bits(held[i]), math.Float32bits(cur[i]))
		}
	}
	return packed
}

// TestPackRoundTrip codes the bit patterns a parameter can hold, one word
// at a time and in chunks of 1–9 floats that split across segments off tag
// boundaries, and checks each word's byte count.
func TestPackRoundTrip(t *testing.T) {
	nan1, nan2 := f32(0x7fc00001), f32(0x7f800123)
	cases := []struct {
		name       string
		prev, cur  float32
		wantBytes  int
		wantPacked string // the one-float coding, hex
	}{
		{"identical", 0.75, 0.75, 1, "0000"},
		{"low byte", f32(0x3f400000), f32(0x3f4000a5), 1, "00a5"},
		{"two bytes", f32(0x3f400000), f32(0x3f401234), 2, "013412"},
		{"three bytes", f32(0x3f400000), f32(0x3f3fffff), 3, "02ffff7f"},
		{"sign flip", 1.5, -1.5, 4, "0300000080"},
		{"+0 to -0", 0, float32(math.Copysign(0, -1)), 4, "0300000080"},
		{"-0 to +0", float32(math.Copysign(0, -1)), 0, 4, "0300000080"},
		{"NaN payloads", nan1, nan2, 3, "02220140"},
		{"NaN to +Inf", nan1, float32(math.Inf(1)), 3, "02010040"},
		{"+Inf to -Inf", float32(math.Inf(1)), float32(math.Inf(-1)), 4, "0300000080"},
		{"denormals", f32(0x00000001), f32(0x007fffff), 3, "02feff7f"},
		{"denormal to zero", f32(0x00000003), 0, 1, "0003"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			packed := packRoundTrip(t, []float32{c.prev}, []float32{c.cur}, 0, []int{1})
			if got := len(packed) - 1; got != c.wantBytes {
				t.Errorf("word takes %d bytes, want %d", got, c.wantBytes)
			}
			if got := hexOf(packed); got != c.wantPacked {
				t.Errorf("coding %s, want %s", got, c.wantPacked)
			}
		})
	}
	// Chunks of every length to 9 with a mix of the cases' words, placed
	// at every offset of a 3 + 5 + 4-float concatenation they fit.
	for n := 1; n <= 9; n++ {
		for lo := 0; lo+n <= 12; lo++ {
			prev, cur := make([]float32, n), make([]float32, n)
			for i := range cur {
				c := cases[(i*5+n)%len(cases)]
				prev[i], cur[i] = c.prev, c.cur
			}
			packRoundTrip(t, prev, cur, lo, []int{3, 5, 4})
		}
	}
	// No floats: no bytes.
	if got := packRoundTrip(t, nil, nil, 0, []int{2}); len(got) != 0 {
		t.Fatalf("an empty chunk packed into %d bytes", len(got))
	}
}

// hexOf is b in lower-case hex.
func hexOf(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(b))
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&15])
	}
	return string(out)
}

// TestPackWorstCase: four significant bytes in every word cost the tags on
// top of the raw floats, PackedBound exactly, and never more.
func TestPackWorstCase(t *testing.T) {
	for _, n := range []int{1, 4, 7, 64, 1001} {
		prev, cur := make([]float32, n), make([]float32, n)
		for i := range cur {
			cur[i] = f32(0x80000000 | uint32(i))
		}
		if got := packRoundTrip(t, prev, cur, 0, []int{n}); len(got) != PackedBound(n) || len(got) != 4*n+(n+3)/4 {
			t.Fatalf("%d sign flips packed into %d bytes, want 4n + ⌈n/4⌉ = %d", n, len(got), PackedBound(n))
		}
	}
}

// TestCheckPackedRefuses: a coding whose tags and bytes disagree, or whose
// float count does not match, is refused.
func TestCheckPackedRefuses(t *testing.T) {
	// Four unchanged floats (one byte each) and a sign flip (four).
	good := Pack(nil, [][]float32{{1, 2, 3, 4, -5}}, 0, []float32{1, 2, 3, 4, 5})
	if err := CheckPacked(good, 5); err != nil {
		t.Fatal(err)
	}
	bad := map[string]struct {
		src []byte
		n   int
	}{
		"one byte short":       {good[:len(good)-1], 5},
		"a trailing byte":      {append(append([]byte(nil), good...), 0), 5},
		"tags only":            {good[:2], 5},
		"fewer floats":         {good, 4},
		"more floats":          {good, 6},
		"negative count":       {good, -1},
		"tag past the last":    {append([]byte{good[0], good[1] | 0x04}, good[2:]...), 5},
		"tags claim more":      {append([]byte{good[0] | 0x03}, good[1:]...), 5},
		"tags claim fewer":     {append([]byte{good[0], good[1] &^ 0x03}, good[2:]...), 5},
		"count past the bytes": {[]byte{0}, 2},
	}
	for name, c := range bad {
		if err := CheckPacked(c.src, c.n); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzPackRoundTrip: unpack∘pack is the identity on arbitrary bit patterns,
// at any chunk length and offset into a two-segment concatenation.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xbf}, uint8(0), uint8(3))
	f.Add([]byte{1, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x7f, 1, 0, 0, 0, 0xff, 0xff, 0x7f, 0}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, lo, cut uint8) {
		n := len(raw) / 8
		prev, cur := make([]float32, n), make([]float32, n)
		for i := range n {
			prev[i] = f32(binary.LittleEndian.Uint32(raw[8*i:]))
			cur[i] = f32(binary.LittleEndian.Uint32(raw[8*i+4:]))
		}
		first := int(cut) % (int(lo) + n + 1)
		packRoundTrip(t, prev, cur, int(lo), []int{first, int(lo) + n - first})
	})
}

// BenchmarkPack codes and decodes one P = 2 chunk of the benchmark's wd
// model (68 000 floats over three segments), alternating between two
// parameter states whose words take one to three bytes, as one SGD step's
// do.
func BenchmarkPack(b *testing.B) {
	const n = 68000
	var states [2][][]float32
	for s := range states {
		flat := make([]float32, n)
		for i := range flat {
			flat[i] = f32(0x3c000000 | (uint32(i)*2654435761+uint32(s)*40503)&0x3ffff)
		}
		states[s] = [][]float32{flat[:1000], flat[1000:61000], flat[61000:]}
	}
	prev := make([]float32, n)
	Pack(nil, states[1], 0, prev)
	buf := make([]byte, 0, PackedBound(n))
	b.Run("pack", func(b *testing.B) {
		for i := range b.N {
			buf = Pack(buf[:0], states[i%2], 0, prev)
		}
	})
	recv := make([]float32, n)
	b.Run("unpack", func(b *testing.B) {
		for range b.N {
			Unpack([][]float32{recv[:1000], recv[1000:61000], recv[61000:]}, 0, n, buf)
		}
	})
	b.Logf("%d floats in %d bytes", n, len(buf))
}
