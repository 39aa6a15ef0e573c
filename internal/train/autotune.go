package train

import (
	"fmt"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/model"
)

// This file drives core.EstimateLookahead from measurement (§4,
// "Automatically Calculating Lookahead"): the CLI's -auto-lookahead flag
// calibrates per-iteration compute time at startup, combines it with the
// embedding link's round-trip time to find the window depth that hides
// prefetch latency behind compute, and caps that depth by what a trainer
// cache budget actually fits.

// CalibrateIterTime measures cfg's per-iteration compute cost: model
// forward/backward plus a dense optimizer step over synthetic batches with
// zero-valued embedding rows — no embedding tier, mesh, or collective
// involved, so it is cheap and runs anywhere. The first iteration warms
// allocations and is not timed.
func CalibrateIterTime(cfg Config, iters int) (time.Duration, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if iters < 1 {
		iters = 1
	}
	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	m, err := model.New(cfg.Model, mcfg)
	if err != nil {
		return 0, err
	}
	opt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return 0, err
	}
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	assign := make([]int, cfg.BatchSize) // every example on rank 0
	var start time.Time
	ls := new(localSlice)
	for i := 0; i <= iters; i++ {
		if i == 1 {
			start = time.Now()
		}
		b := gen.Batch(i, cfg.BatchSize)
		ls.extract(b, assign, 0, cfg.Spec.NumNumeric)
		ls.fillEmb(b, cfg.Spec.NumCategorical, cfg.Spec.EmbDim, nil)
		computeLocal(m, ls)
		opt.Step(m.Params())
	}
	return time.Since(start) / time.Duration(iters), nil
}

// AutoLookahead picks ℒ: deep enough that a prefetch issued ℒ iterations
// early lands before its batch trains (rtt hidden behind compute), capped
// by the deepest window whose working set fits cacheRows rows
// (core.EstimateLookahead walks the actual batch stream), and never beyond
// maxL. iterTime <= 0 (free compute, e.g. an unmeasurably fast model)
// degrades to the latency floor of 2.
func AutoLookahead(cfg Config, iterTime, rtt time.Duration, cacheRows, maxL int) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if cacheRows < 1 || maxL < 1 {
		return 0, fmt.Errorf("train: auto-lookahead needs a positive cache budget and max window, got %d rows / max %d", cacheRows, maxL)
	}
	need := 2 // even a zero-latency link wants one iteration of overlap
	if iterTime > 0 && rtt > 0 {
		need = int(rtt/iterTime) + 2
	}
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	fit := core.EstimateLookahead(gen, cfg.BatchSize, cacheRows, maxL)
	l := need
	if l > fit {
		l = fit // the cache budget is the hard ceiling
	}
	if l < 1 {
		l = 1
	}
	return l, nil
}
