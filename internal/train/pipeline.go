package train

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/transport"
)

// prefetched is one iteration moving through the pipeline: the oracle's
// decision plus a future holding the rows the prefetch pool fetched for it.
type prefetched struct {
	dec   *core.Decision
	stats core.IterStats
	rows  chan [][]float32 // buffered(1); the assigned worker delivers once
}

// maintJob is one iteration's dirty evictions bound for write-back.
type maintJob struct {
	iter      int
	evictions []core.Eviction
}

// RunPipelined trains with Bagpipe's staged, concurrent engine:
//
//   - an oracle goroutine walks the batch stream ℒ iterations ahead and
//     emits Decisions (Algorithm 1);
//   - a dispatcher hands each decision to a prefetch worker pool that
//     fetches cache misses from the embedding servers, while delivery
//     order back to the trainer stays iteration order;
//   - the trainer inserts prefetched rows into the TTL cache, runs the
//     data-parallel ranks (dense gradients all-reduced rank-ordered),
//     applies sparse updates to the cached rows, and expires TTLs;
//   - a maintenance goroutine writes dirty evictions back to the servers
//     in the background (§4, "Overlapping cache management with training").
//
// A token bucket of depth ℒ ties the stages together: the prefetch for
// iteration x is issued only after iteration x−ℒ's write-backs finished,
// which is precisely the oracle's consistency window — an id being
// prefetched was last written back at least ℒ iterations ago, so the
// servers cannot serve a stale row. The cache itself is touched only by
// the trainer goroutine, so it needs no locking, exactly as the paper's
// disjointness argument promises.
func RunPipelined(cfg Config, tr transport.Store) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LookAhead < 1 {
		return nil, fmt.Errorf("train: pipelined engine needs LookAhead >= 1, got %d", cfg.LookAhead)
	}
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, cfg.NumTrainers)
	oracle.Partitioner = cfg.Partitioner // nil keeps the oracle's Contiguous default
	rk, err := newRanks(&cfg)
	if err != nil {
		return nil, err
	}
	defer rk.close()
	rowOpt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	cache := core.NewCache(cfg.Spec.EmbDim)
	L := cfg.LookAhead

	decCh := make(chan *prefetched, L)   // oracle → dispatcher
	orderCh := make(chan *prefetched, L) // dispatcher → trainer (iteration order)
	jobCh := make(chan *prefetched, L)   // dispatcher → prefetch pool
	maintCh := make(chan maintJob, L)    // trainer → maintenance
	tokens := make(chan struct{}, L)     // maintenance → dispatcher backpressure
	for i := 0; i < L; i++ {
		tokens <- struct{}{}
	}

	// Stage-activity probes: cheap evidence (reported in Result and checked
	// by tests) that prefetch and maintenance really run concurrently with
	// training rather than being serialized by accident.
	var activePrefetch, activeMaint, activeTrain atomic.Int64
	var overlapPT, overlapMT atomic.Int64
	noteOverlap := func() {
		if activePrefetch.Load() > 0 {
			overlapPT.Add(1)
		}
		if activeMaint.Load() > 0 {
			overlapMT.Add(1)
		}
	}

	// Stage 1: oracle lookahead.
	go func() {
		defer close(decCh)
		for {
			d, ok := oracle.Next()
			if !ok {
				return
			}
			decCh <- &prefetched{dec: d, stats: d.Stats(oracle.CacheOccupancy()), rows: make(chan [][]float32, 1)}
		}
	}()

	// Stage 2: dispatcher — acquires a lookahead token per iteration and
	// fans work to the pool while preserving delivery order.
	go func() {
		defer close(orderCh)
		defer close(jobCh)
		for p := range decCh {
			<-tokens
			orderCh <- p
			jobCh <- p
		}
	}()

	// Stage 2b: prefetch worker pool.
	var workers sync.WaitGroup
	for w := 0; w < cfg.prefetchWorkers(); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for p := range jobCh {
				var rows [][]float32
				if len(p.dec.Prefetch) > 0 {
					activePrefetch.Add(1)
					if activeTrain.Load() > 0 {
						overlapPT.Add(1)
					}
					rows = tr.Fetch(p.dec.Prefetch)
					activePrefetch.Add(-1)
				}
				p.rows <- rows
			}
		}()
	}

	// Stage 4: background cache maintenance — dirty-eviction write-backs.
	maintDone := make(chan struct{})
	go func() {
		defer close(maintDone)
		for job := range maintCh {
			if len(job.evictions) > 0 {
				activeMaint.Add(1)
				if activeTrain.Load() > 0 {
					overlapMT.Add(1)
				}
				ids := make([]uint64, len(job.evictions))
				rows := make([][]float32, len(job.evictions))
				for i, ev := range job.evictions {
					ids[i] = ev.ID
					rows[i] = ev.Row
				}
				tr.Write(ids, rows)
				activeMaint.Add(-1)
			}
			tokens <- struct{}{} // iteration job.iter fully retired
		}
	}()

	// Stage 3: the trainer (this goroutine). On an invariant failure the
	// loop stops training but keeps draining the pipeline (receiving every
	// future and retiring every iteration's token), so the upstream
	// goroutines all run to completion and nothing touches the transport
	// after RunPipelined returns.
	res := &Result{Engine: "pipelined"}
	start := time.Now()
	var lossSum float64
	var runErr error
	for p := range orderCh {
		d := p.dec
		rows := <-p.rows
		if runErr != nil {
			maintCh <- maintJob{iter: d.Iter}
			continue
		}
		k := 0
		for i, id := range d.Prefetch {
			for d.IDs[k] != id { // Prefetch ⊆ IDs, both ascending
				k++
			}
			cache.Insert(id, rows[i], d.TTL[k])
		}
		gathered := make(map[uint64][]float32, len(d.IDs))
		for k, id := range d.IDs {
			e, ok := cache.Get(id)
			if !ok {
				runErr = fmt.Errorf("train: iter %d: id %d missing from cache (oracle consistency violated)", d.Iter, id)
				break
			}
			e.TTL = d.TTL[k] // TTLUpdateRequest for cached hits; no-op for fresh inserts
			gathered[id] = e.Row
		}
		if runErr != nil {
			maintCh <- maintJob{iter: d.Iter}
			continue
		}

		activeTrain.Add(1)
		noteOverlap()
		loss, grads := rk.step(d.Batch, d.Assign, gathered)
		noteOverlap()
		activeTrain.Add(-1)

		for _, id := range sortedIDs(grads) {
			e, _ := cache.Peek(id)
			rowOpt.UpdateRow(id, e.Row, grads[id])
			e.Dirty = true
		}
		evs := cache.EvictExpired(d.Iter)
		maintCh <- maintJob{iter: d.Iter, evictions: evs}

		if res.Iters == 0 {
			res.FirstLoss = loss
		}
		res.LastLoss = loss
		lossSum += float64(loss)
		res.Iters++
		res.UniqueIDs += int64(p.stats.UniqueIDs)
		res.CachedHits += int64(p.stats.CachedHits)
		res.Prefetched += int64(p.stats.Prefetched)
		res.Evicted += int64(len(evs))
	}
	close(maintCh)
	workers.Wait()
	<-maintDone
	if runErr != nil {
		return nil, runErr
	}

	if cache.Len() != 0 {
		return nil, fmt.Errorf("train: %d rows still cached after final iteration (TTL bookkeeping broken)", cache.Len())
	}
	res.Examples = int64(res.Iters) * int64(cfg.BatchSize)
	res.Elapsed = time.Since(start)
	if res.Iters > 0 {
		res.AvgLoss = lossSum / float64(res.Iters)
	}
	res.PeakCache = cache.PeakRows()
	res.OverlapPrefetchTrain = overlapPT.Load()
	res.OverlapMaintTrain = overlapMT.Load()
	res.Transport = tr.Stats()
	res.StoreServers = tr.ServerStats()
	addTierHealth(res, tr)
	return res, nil
}
