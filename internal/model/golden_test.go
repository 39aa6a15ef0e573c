package model

import (
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"bagpipe/internal/nn"
)

// goldenDigests pins, per model, an FNV-1a digest over the float32 bit
// patterns of logits, dEmb and every Param.Grad across two consecutive
// training steps on tinyBatch(8) under tinyCfg. The values were computed
// before Forward/Backward were split into staged halves (and before the
// layers reused gradient scratch), so a match proves both refactors
// bit-neutral — including signed zeros and the second step, where every
// reused buffer holds the first step's contents.
var goldenDigests = map[string]uint64{
	"dlrm":   0x543f52a6632d1ee5,
	"wd":     0x374ecb8d0b87e633,
	"dc":     0x8ecae52578389205,
	"deepfm": 0xad1eaabadee6c173,
}

func digestF32(h hash.Hash64, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
}

// goldenDigest runs two SGD steps and hashes everything a step produces.
func goldenDigest(m Model) uint64 {
	dense, emb, cats, labels := tinyBatch(8, m.EmbDim())
	h := fnv.New64a()
	dlogits := make([]float32, 8)
	for step := 0; step < 2; step++ {
		nn.ZeroGrads(m.Params())
		logits := m.Forward(dense, emb, cats)
		digestF32(h, logits)
		for i, z := range logits {
			dlogits[i] = (z - labels[i]) / 8 // squared-error gradient: no libm call to differ across hosts
		}
		dEmb := m.Backward(dlogits)
		digestF32(h, dEmb.Data)
		for _, p := range m.Params() {
			digestF32(h, p.Grad)
			for i, g := range p.Grad {
				p.Value[i] -= 0.05 * g
			}
		}
		emb.AddScaled(dEmb, -0.05)
	}
	return h.Sum64()
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; other targets may fuse multiply-adds")
	}
	for _, name := range Names() {
		m, err := New(name, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := goldenDigest(m), goldenDigests[name]; got != want {
			t.Errorf("%s: digest %#x, want %#x (pinned before the staged split): the arithmetic changed", name, got, want)
		}
	}
}
