package train

import "bagpipe/internal/transport"

// efState is one trainer's error-feedback compressor for the
// -sync-compress-grad mode: delayed-sync gradient flushes are quantized to
// float16 at the sender, and the rounding error of every flush is carried
// per (owner, row) and injected into that row's next flush. Plain
// quantization would re-lose up to half an f16 ulp of gradient signal on
// every iteration a row stays hot; with error feedback the loss is bounded
// by one residual per row, no matter how many iterations it trains — the
// standard compensation scheme of compressed-gradient training systems.
//
// The state lives entirely on the flusher goroutine (no locking): compress
// is called once per (owner, id, iteration) in the deterministic flush-pass
// order, so compressed runs remain bit-identical across runs and fabrics —
// just not to the lossless baseline, which is why -verify refuses the flag.
type efState struct {
	dim int
	res map[int]map[uint64][]float32 // owner → id → carried f16 rounding error
}

func newEFState(dim int) *efState {
	return &efState{dim: dim, res: make(map[int]map[uint64][]float32)}
}

// compress quantizes one (owner, id)'s partial for one iteration in place:
// the carried residual is injected, every element is rounded through
// float16, and the new rounding error becomes the residual the next flush
// carries. The partial belongs to the flusher from the moment the trainer
// loop queued it, so the in-place rewrite races with nothing.
func (ef *efState) compress(owner int, id uint64, g []float32) {
	byID := ef.res[owner]
	if byID == nil {
		byID = make(map[uint64][]float32)
		ef.res[owner] = byID
	}
	r := byID[id]
	if r == nil {
		r = make([]float32, ef.dim)
		byID[id] = r
	}
	for k, x := range g {
		x += r[k]
		q := transport.F32FromF16(transport.F16FromF32(x))
		r[k] = x - q
		g[k] = q
	}
}
