package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/model"
	"bagpipe/internal/optim"
	"bagpipe/internal/tensor"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// tracedRun is the traced invocation: the per-layer metrics.
//
// It runs the workload twice at a quarter of the timed run's measured work,
// first plain, then under the decorators and hooks, both serving. The plain
// twin gives the tracing overhead and proves the decorators transparent
// (equal final fingerprints). Replay micro-benchmarks then time each layer's
// public functions over the inputs the decorators captured.
func tracedRun(w *workload, seed uint64, sz sizes, outDir string) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	batches := sz.traced

	plain, err := runOnce(w, seed, batches, nil, sz.quiet/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(batches)
	traced, err := runOnce(w, seed, batches, tr, sz.quiet/2)
	if err != nil {
		return nil, err
	}
	spans := tr.finish()
	if err := writeTrace(filepath.Join(outDir, w.name+".trace.json"), spans); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.fingerprint = traced.fingerprint
	for _, o := range []*outcome{plain, traced} {
		rep.gates(w.name, o, batches)
		rep.count(o, batches)
	}
	if traced.fingerprint != plain.fingerprint {
		rep.violate("%s: traced run ended at %016x, untraced at %016x: a decorator is not transparent", w.name, traced.fingerprint, plain.fingerprint)
	}
	if traced.load == nil || traced.load.served == 0 {
		return nil, fmt.Errorf("%s: the traced run served no query", w.name)
	}
	baseRate, err := baselineOnFabric(w, seed, sz.base)
	if err != nil {
		return nil, err
	}

	m := rep.Metrics
	res, iters := traced.res, float64(traced.res.Iters)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Exact public counters of the traced run.
	put("core.cache_hit_ratio", res.HitRate(), "share")
	put("core.prefetch_rows_per_iter", float64(res.Prefetched)/iters, "rows")
	put("core.evicted_rows_per_iter", float64(res.Evicted)/iters, "rows")
	put("core.peak_cache_rows", float64(res.PeakCache), "rows")
	put("embed.rows_fetched_per_iter", float64(traced.embedStats.rowsFetched)/iters, "rows")
	put("embed.rows_written_per_iter", float64(traced.embedStats.rowsWritten)/iters, "rows")
	put("embed.materialized_rows", float64(traced.embedStats.materialized), "rows")
	put("transport.fetch_calls_per_iter", float64(res.Transport.Fetches)/iters, "count")
	put("transport.write_calls_per_iter", float64(res.Transport.Writes)/iters, "count")
	mc := res.MeshClasses
	put("transport.mesh_replica_bytes_per_iter", float64(mc.ReplicaBytes)/iters, "bytes")
	put("transport.mesh_sync_bytes_per_iter", float64(mc.SyncBytes)/iters, "bytes")
	put("transport.mesh_coll_bytes_per_iter", float64(mc.CollBytes)/iters, "bytes")
	put("transport.mesh_plan_bytes_per_iter", float64(mc.PlanBytes)/iters, "bytes")
	put("transport.mesh_sync_frames_per_iter", float64(mc.SyncMsgs)/iters, "count")
	put("transport.mesh_coll_frames_per_iter", float64(mc.CollMsgs)/iters, "count")
	put("transport.mesh_dropped", float64(traced.dropped), "count")
	put("transport.tier_retries", float64(traced.retries), "count")
	put("transport.tier_failovers", float64(traced.failovers), "count")
	put("train.urgent_flush_share", ratio(float64(res.UrgentFlushes), float64(res.UrgentFlushes+res.DelayedFlushes)), "share")
	put("train.allocs_per_iter", float64(plain.steadyMallocs)*batchSize/float64(plain.steadyExamples), "count")
	put("train.baseline_ex_per_s", baseRate, "ex/s")
	put("train.trace_overhead_share", 1-traced.exPerSec()/plain.exPerSec(), "share")
	fs := traced.feStats
	put("serve.cache_hit_ratio", ratio(float64(fs.Cache.Hits), float64(fs.Cache.Hits+fs.Cache.Misses)), "share")
	put("serve.cache_stale_share", ratio(float64(fs.Cache.Stale), float64(fs.Cache.Hits+fs.Cache.Misses)), "share")
	put("serve.rate_shed", float64(fs.RateShed), "count")
	put("serve.tier_shed", float64(fs.TierShed), "count")
	put("serve.breaker_trips", float64(fs.Trips), "count")

	// Spans of the measured window.
	sStart, sEnd := tr.sStart.Load(), tr.sEnd.Load()
	wallNs := float64(sEnd - sStart)
	var fetch, write, send, readFetch, inflight []time.Duration
	var fetchAll, writeAll int64
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case spanFetch:
			fetchAll += int64(d)
		case spanWrite:
			writeAll += int64(d)
		case spanReadFetch:
			// Queries are only offered during the serving period, which on a
			// quiet-serving workload lies after the training window.
			readFetch = append(readFetch, d)
		}
		if s.Start < sStart || s.End > sEnd {
			continue
		}
		switch {
		case s.Name == spanFetch:
			fetch = append(fetch, d)
		case s.Name == spanWrite:
			write = append(write, d)
		case s.Name == spanIter:
			inflight = append(inflight, d)
		case strings.HasPrefix(s.Name, spanMeshSend):
			send = append(send, d)
		}
	}
	putQ := func(name string, xs []time.Duration, q float64, conv func(time.Duration) float64, unit string) {
		v, _ := quantile(xs, q)
		put(name, conv(v), unit)
	}
	putQ("transport.fetch_p50_ms", fetch, 0.50, ms, "ms")
	putQ("transport.fetch_p99_ms", fetch, 0.99, ms, "ms")
	putQ("transport.write_p50_ms", write, 0.50, ms, "ms")
	putQ("transport.write_p99_ms", write, 0.99, ms, "ms")
	put("transport.fetch_busy_share", float64(sum(fetch))/(numTrainers*wallNs), "share")
	put("transport.write_busy_share", float64(sum(write))/(numTrainers*wallNs), "share")
	// Children that serve one call side by side each charge their delay, so
	// the share passes 1 when calls fan out. With P = S the ownership hash
	// sends every id a trainer owns to one server, and it stays below 1.
	put("transport.sim_delay_share", ratio(float64(res.Transport.SimulatedDelay), float64(fetchAll+writeAll)), "share")
	putQ("transport.mesh_send_p50_us", send, 0.50, us, "us")
	putQ("transport.mesh_send_p99_us", send, 0.99, us, "us")
	put("transport.mesh_recv_wait_share", float64(tr.recvWait.Load())/(numTrainers*wallNs), "share")
	var gaps []time.Duration
	for _, l := range tr.lanes[:numTrainers] {
		gaps = append(gaps, l.gaps...)
	}
	putQ("train.iter_gap_p50_ms", gaps, 0.50, ms, "ms")
	putQ("train.iter_gap_p99_ms", gaps, 0.99, ms, "ms")
	putQ("train.iter_inflight_ms", inflight, 0.50, ms, "ms")
	putQ("serve.readfetch_p50_ms", readFetch, 0.50, ms, "ms")
	putQ("serve.readfetch_p99_ms", readFetch, 0.99, ms, "ms")
	put("serve.readfetch_calls_per_query", ratio(float64(len(readFetch)), float64(traced.load.served)), "count")
	p99, b99 := quantile(traced.load.lat, 0.99)
	p999, b999 := quantile(traced.load.lat, 0.999)
	put("serve.e2e_p99_ms", ms(p99), "ms")
	put("serve.e2e_p999_ms", ms(p999), "ms")
	putQ("serve.gen_late_p99_ms", traced.load.late, 0.99, ms, "ms")

	// Replay micro-benchmarks.
	cfg := w.trainConfig(seed, batches)
	mb := microBench{budget: sz.micro, reps: sz.reps, seed: seed}
	genUs := mb.batchGen(cfg.Spec)
	oracleUs, plans := mb.oracle(cfg.Spec)
	put("data.batch_gen_us", genUs, "us")
	put("core.oracle_next_us", oracleUs, "us")
	put("core.oracle_headroom", (1e6/oracleUs)/(traced.exPerSec()/batchSize), "ratio")
	put("core.cache_op_ns", mb.cacheOps(plans), "ns")
	ef, ew := mb.embed(tr)
	put("embed.fetch_ns_per_row", ef, "ns")
	put("embed.write_ns_per_row", ew, "ns")
	sf, sw := mb.sharded(tr, w.replicate)
	put("transport.sharded_fetch_ns_per_row", sf, "ns")
	put("transport.sharded_write_ns_per_row", sw, "ns")
	rtt, mbps, err := mb.tcpLink()
	if err != nil {
		return nil, err
	}
	put("transport.tcplink_rtt_us", rtt, "us")
	put("transport.tcplink_fetch_mb_per_s", mbps, "MB/s")
	enc, dec, err := mb.codec(tr.frames)
	if err != nil {
		return nil, err
	}
	put("transport.codec_encode_mb_per_s", enc, "MB/s")
	put("transport.codec_decode_mb_per_s", dec, "MB/s")
	mod, err := mb.model(cfg)
	if err != nil {
		return nil, err
	}
	put("collective.fused_allreduce_us", mod.allreduceUs, "us")
	put("model.fwd_bwd_us_per_ex", mod.fwdBwdUsPerEx, "us")
	put("optim.dense_step_us", mod.stepUs, "us")
	put("tensor.matmul_gflop_per_s", mod.matmulGflops, "GFLOP/s")
	put("model.forward_us_per_query", mod.forwardUs, "us")
	// Time the window's compute cannot explain: what Bagpipe exists to shrink.
	put("train.stall_share", 1-(mod.fwdBwdUsPerEx*1e3*float64(traced.steadyExamples)/numTrainers)/wallNs, "share")
	rep.finish()

	self := selfTimes(spans)
	var rootSelf []time.Duration
	for i, s := range spans {
		if s.Name == spanIter && s.Start >= sStart && s.End <= sEnd {
			rootSelf = append(rootSelf, time.Duration(self[i]))
		}
	}
	selfP50, _ := quantile(rootSelf, 0.5)
	fmt.Printf("%s seed %d traced: %d batches, %d spans, train.iter self time p50 %.2f ms, %d queries (%d beyond p99, %d beyond p999), untraced %.0f ex/s, traced %.0f ex/s\n",
		w.name, seed, batches, len(spans), ms(selfP50), traced.load.issued, b99, b999, plain.exPerSec(), traced.exPerSec())
	return rep, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []time.Duration) (t time.Duration) {
	for _, x := range xs {
		t += x
	}
	return t
}

// timeReps calls fn until budget has passed (at least three times) and
// returns the median duration of a call.
func timeReps(budget time.Duration, fn func()) time.Duration {
	var reps []time.Duration
	for start := time.Now(); len(reps) < 3 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		reps = append(reps, time.Since(t0))
	}
	v, _ := quantile(reps, 0.5)
	return v
}

// microBench runs the replay micro-benchmarks: each times calls into one
// layer's public functions for budget.
type microBench struct {
	budget time.Duration
	reps   int
	seed   uint64
}

func (mb microBench) batchGen(spec *data.Spec) float64 {
	gen := data.NewGenerator(spec, mb.seed)
	i := 0
	return us(timeReps(mb.budget, func() { gen.Batch(i, batchSize); i++ }))
}

// oracle times a standalone oracle over the workload's stream, one Next plus
// SplitPlans per iteration, and returns trainer 0's plans for the cache
// replay.
func (mb microBench) oracle(spec *data.Spec) (float64, []*core.TrainerPlan) {
	iters := lookAhead + 8*mb.reps
	gen := data.NewGenerator(spec, mb.seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, batchSize, iters), lookAhead, numTrainers)
	var plans []*core.TrainerPlan
	var reps []time.Duration
	for {
		t0 := time.Now()
		d, ok := oracle.Next()
		if !ok {
			break
		}
		ps := d.SplitPlans(numTrainers)
		reps = append(reps, time.Since(t0))
		plans = append(plans, ps[0])
	}
	// Only the calls that still pull a batch into a full window count; the
	// first fills the whole window and the median ignores it.
	v, _ := quantile(reps[:iters-lookAhead+1], 0.5)
	return us(v), plans
}

// benchCacheOps replays one trainer's plans against a fresh partition cache
// in the order the engine issues them: insert the prefetched rows, refresh
// TTLs, read the owned rows, evict the expiring ones.
func (mb microBench) cacheOps(plans []*core.TrainerPlan) float64 {
	row := make([]float32, embDim)
	ops := 0
	d := timeReps(mb.budget, func() {
		c := core.NewCache(embDim)
		ops = 0
		for _, pl := range plans {
			for _, id := range pl.Prefetch {
				c.Insert(id, row, pl.OwnedTTL[id])
			}
			for id, ttl := range pl.OwnedTTL {
				c.UpdateTTL(id, ttl)
			}
			for id := range pl.Users {
				c.Get(id)
			}
			for _, id := range pl.Expiring {
				c.Remove(id)
			}
			ops += len(pl.Prefetch) + len(pl.OwnedTTL) + len(pl.Users) + len(pl.Expiring)
		}
	})
	return ratio(float64(d), float64(ops))
}

// replayRows counts the rows of the captured calls.
func (t *tracer) replayRows() (fetchRows, writeRows int) {
	for _, ids := range t.fetches {
		fetchRows += len(ids)
	}
	for _, c := range t.writes {
		writeRows += len(c.ids)
	}
	return
}

// benchEmbed replays the captured id batches into a fresh embedding server.
// One untimed pass materialises the rows first.
func (mb microBench) embed(t *tracer) (fetchNs, writeNs float64) {
	srv := embed.NewServer(numShards, embDim, mb.seed^0xE, initScale)
	fr, wr := t.replayRows()
	var dsts [][]float32
	fetch := func() {
		for _, ids := range t.fetches {
			for len(dsts) < len(ids) {
				dsts = append(dsts, make([]float32, embDim))
			}
			srv.FetchInto(ids, dsts[:len(ids)])
		}
	}
	write := func() {
		for _, c := range t.writes {
			srv.Write(c.ids, c.rows)
		}
	}
	fetch()
	write()
	return ratio(float64(timeReps(mb.budget, fetch)), float64(fr)), ratio(float64(timeReps(mb.budget, write)), float64(wr))
}

// benchSharded replays the same batches through a tier client over
// in-process children at the workload's S and R; minus embed.*_ns_per_row it
// is the scatter/gather and replication overhead.
func (mb microBench) sharded(t *tracer, replicate int) (fetchNs, writeNs float64) {
	children := make([]transport.Store, numServers)
	for s := range children {
		children[s] = transport.NewInProcess(embed.NewServer(numShards, embDim, mb.seed^0xE, initScale))
	}
	tier := transport.NewTier(children, transport.TierOptions{Replicate: replicate})
	arena := transport.Rows(embDim)
	fr, wr := t.replayRows()
	fetch := func() {
		for _, ids := range t.fetches {
			rows := tier.Fetch(ids)
			arena.PutN(rows)
			transport.PutRowSlice(rows)
		}
	}
	write := func() {
		for _, c := range t.writes {
			tier.Write(c.ids, c.rows)
		}
	}
	fetch()
	write()
	return ratio(float64(timeReps(mb.budget, fetch)), float64(fr)), ratio(float64(timeReps(mb.budget, write)), float64(wr))
}

// benchTCPLink measures a 1-row fetch round trip and the payload rate of
// 1024-row fetches against a loopback ServeEmbed.
func (mb microBench) tcpLink() (rttUs, mbPerS float64, err error) {
	srv := embed.NewServer(numShards, embDim, mb.seed^0xE, initScale)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("tcplink bench: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- transport.ServeEmbed(lis, srv) }()
	link, err := transport.DialTCPLink(lis.Addr().String(), 5*time.Second)
	if err != nil {
		lis.Close()
		<-done
		return 0, 0, fmt.Errorf("tcplink bench: %w", err)
	}
	arena := transport.Rows(embDim)
	fetch := func(ids []uint64) func() {
		return func() {
			rows := link.Fetch(ids)
			arena.PutN(rows)
			transport.PutRowSlice(rows)
		}
	}
	big := make([]uint64, 1024)
	for i := range big {
		big[i] = uint64(i)
	}
	rtt := timeReps(mb.budget, fetch(big[:1]))
	bulk := timeReps(mb.budget, fetch(big))
	link.Shutdown()
	link.Close()
	if err := <-done; err != nil {
		return 0, 0, fmt.Errorf("tcplink bench: server: %w", err)
	}
	payload := float64(len(big) * (8 + 4*embDim))
	return us(rtt), payload / bulk.Seconds() / 1e6, nil
}

// benchCodec replays the captured mesh payloads through the wire codec. The
// frames keep the order they were sent in, so the byte mix of the traffic
// classes is the workload's own.
func (mb microBench) codec(frames [][]byte) (encMBs, decMBs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	var bytes int
	payloads := make([]any, len(frames))
	for i, f := range frames {
		bytes += len(f)
		if payloads[i], err = transport.DecodePayload(f); err != nil {
			return 0, 0, fmt.Errorf("codec bench: captured frame %d does not decode: %w", i, err)
		}
	}
	dec := timeReps(mb.budget, func() {
		for _, f := range frames {
			transport.DecodePayload(f) //nolint:errcheck // decoded once above
		}
	})
	enc := timeReps(mb.budget, func() {
		for _, p := range payloads {
			transport.EncodePayload(p)
		}
	})
	return float64(bytes) / enc.Seconds() / 1e6, float64(bytes) / dec.Seconds() / 1e6, nil
}

type modelBench struct {
	allreduceUs, fwdBwdUsPerEx, stepUs, matmulGflops, forwardUs float64
}

// benchModel times the compute layers at the shapes the frozen wd
// configuration gives them.
func (mb microBench) model(cfg train.Config) (modelBench, error) {
	var b modelBench
	iter, err := train.CalibrateIterTime(cfg, mb.reps)
	if err != nil {
		return b, err
	}
	b.fwdBwdUsPerEx = us(iter) / batchSize

	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	m, err := model.New(cfg.Model, mcfg)
	if err != nil {
		return b, err
	}
	opt := optim.NewSGD(cfg.LR)
	b.stepUs = us(timeReps(mb.budget, func() { opt.Step(m.Params()) }))

	// Inputs are dense noise: the kernels skip zero entries, so zero-valued
	// matrices would time nothing.
	rng := tensor.NewRNG(cfg.Seed ^ 0xBE)
	noise := func(rows, cols int) *tensor.Matrix {
		mat := tensor.NewMatrix(rows, cols)
		tensor.UniformInit(mat.Data, 1, rng)
		return mat
	}
	dense := noise(1, cfg.Spec.NumNumeric)
	emb := noise(1, cfg.Spec.NumCategorical*cfg.Spec.EmbDim)
	cats := [][]uint64{make([]uint64, cfg.Spec.NumCategorical)}
	b.forwardUs = us(timeReps(mb.budget, func() { m.Forward(dense, emb, cats) }))

	// wd's widest layer: a trainer's half batch through a 256x256 hidden layer.
	const rows, inner, cols = batchSize / numTrainers, 256, 256
	x, y, dst := noise(rows, inner), noise(inner, cols), tensor.NewMatrix(rows, cols)
	mm := timeReps(mb.budget, func() { tensor.MatMul(dst, x, y) })
	b.matmulGflops = 2 * rows * inner * cols / mm.Seconds() / 1e9

	// One fused round per iteration over wd's gradient segments, between
	// numTrainers goroutines.
	rounds := 25 * mb.reps
	group := collective.NewGroup(numTrainers)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < numTrainers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var segs [][]float32
			for _, p := range m.Params() {
				segs = append(segs, make([]float32, len(p.Grad)))
			}
			loss := []float64{0}
			for i := 0; i < rounds; i++ {
				group.FusedAllReduce(r, segs, loss)
			}
		}()
	}
	wg.Wait()
	b.allreduceUs = us(time.Since(start)) / float64(rounds)
	return b, nil
}
