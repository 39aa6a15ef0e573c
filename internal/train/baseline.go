package train

import (
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/transport"
)

// RunBaseline trains with the fetch-per-batch strategy every system in §2.3
// of the paper starts from: no cache, no lookahead, no overlap. Each
// iteration synchronously fetches the batch's unique embedding rows from
// the servers, runs the data-parallel ranks, applies the sparse updates,
// and writes every row straight back. It is the reference the LRPP engine
// is differentially tested against: over the same Config the two must
// leave the embedding tier in bit-identical state — whatever the tier
// width: tr is the Store abstraction, so the same loop runs against one
// server or an S-way ShardedStore unchanged.
func RunBaseline(cfg Config, tr transport.Store) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	rk, err := newRanks(&cfg)
	if err != nil {
		return nil, err
	}
	defer rk.close()
	rowOpt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	part := cfg.partitioner()

	res := &Result{Engine: "baseline"}
	start := time.Now()
	var lossSum float64
	var idx core.IDTable // id → position in ids, slots in insertion order
	var placer core.Placer
	var assign []int
	for iter := 0; iter < cfg.NumBatches; iter++ {
		b := gen.Batch(iter, cfg.BatchSize)
		ids := b.UniqueIDs()
		fetched := tr.Fetch(ids)
		idx.Reset()
		for _, id := range ids {
			idx.Put(id)
		}

		assign = placer.Assign(part, assign, b, cfg.NumTrainers)
		loss, grads := rk.step(b, assign, &idx, fetched)

		// Apply sparse updates in sorted-ID order and write everything
		// straight back.
		for i, id := range ids {
			rowOpt.UpdateRow(id, fetched[i], grads[i])
		}
		tr.Write(ids, fetched)

		if iter == 0 {
			res.FirstLoss = loss
		}
		res.LastLoss = loss
		lossSum += float64(loss)
		res.UniqueIDs += int64(len(ids))
		res.Prefetched += int64(len(ids))
	}
	res.Iters = cfg.NumBatches
	res.Examples = int64(cfg.NumBatches) * int64(cfg.BatchSize)
	res.Elapsed = time.Since(start)
	res.AvgLoss = lossSum / float64(cfg.NumBatches)
	res.Transport = tr.Stats()
	res.StoreServers = tr.ServerStats()
	addTierHealth(res, tr)
	return res, nil
}
