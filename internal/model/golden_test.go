package model

import (
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
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

// benchShapeDigest pins the same digest for wd at the shape the benchmark
// freezes (bench/workload.go: 128 examples per trainer, 13→256→256→256 tower,
// head 256+26·16→1), which tinyCfg never reaches: 256-wide rows, a 128-row
// transpose, post-ReLU rows that are about half zeros. It was computed with
// the three naive loop nests that tensor_test.go now keeps as references.
const benchShapeDigest uint64 = 0x9801b72504daf536

func benchShapeCfg() Config {
	return Config{NumCategorical: 26, NumNumeric: 13, TotalRows: 337_626, EmbDim: 16, Seed: 42}
}

// benchShapeBatch builds deterministic inputs under benchShapeCfg. A quarter
// of the numeric features are exactly zero, as Criteo's counters often are,
// so the first layer meets skipped multipliers too.
func benchShapeBatch(b int) (dense, emb *tensor.Matrix, cats [][]uint64, labels []float32) {
	cfg := benchShapeCfg()
	rng := tensor.NewRNG(1234)
	dense = tensor.NewMatrix(b, cfg.NumNumeric)
	emb = tensor.NewMatrix(b, cfg.NumCategorical*cfg.EmbDim)
	cats = make([][]uint64, b)
	labels = make([]float32, b)
	for i := range dense.Data {
		if rng.Intn(4) != 0 {
			dense.Data[i] = rng.Float32()*2 - 1
		}
	}
	for i := range emb.Data {
		emb.Data[i] = rng.Float32() - 0.5
	}
	for i := range cats {
		cats[i] = make([]uint64, cfg.NumCategorical)
		for f := range cats[i] {
			cats[i][f] = uint64(rng.Intn(int(cfg.TotalRows)))
		}
		if rng.Float64() < 0.5 {
			labels[i] = 1
		}
	}
	return
}

// goldenDigest runs two SGD steps and hashes everything a step produces.
func goldenDigest(m Model, dense, emb *tensor.Matrix, cats [][]uint64, labels []float32) uint64 {
	h := fnv.New64a()
	dlogits := make([]float32, len(labels))
	for step := 0; step < 2; step++ {
		nn.ZeroGrads(m.Params())
		logits := m.Forward(dense, emb, cats)
		digestF32(h, logits)
		for i, z := range logits {
			dlogits[i] = (z - labels[i]) / float32(len(labels)) // squared-error gradient: no libm call to differ across hosts
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
		dense, emb, cats, labels := tinyBatch(8, m.EmbDim())
		if got, want := goldenDigest(m, dense, emb, cats, labels), goldenDigests[name]; got != want {
			t.Errorf("%s: digest %#x, want %#x (pinned before the staged split): the arithmetic changed", name, got, want)
		}
	}
	dense, emb, cats, labels := benchShapeBatch(128)
	if got := goldenDigest(NewWideDeep(benchShapeCfg()), dense, emb, cats, labels); got != benchShapeDigest {
		t.Errorf("wd at the bench shape: digest %#x, want %#x (pinned at the naive kernels): the arithmetic changed", got, benchShapeDigest)
	}
}
