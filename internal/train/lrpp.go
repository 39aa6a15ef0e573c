package train

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/model"
	"bagpipe/internal/nn"
	"bagpipe/internal/optim"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// LRPPHooks receives engine events for invariant auditing by the
// differential and fuzz harness. Callbacks run synchronously on engine
// goroutines (several concurrently — implementations must synchronize
// themselves) and must not call back into the engine. All hooks are
// optional; a nil LRPPHooks (the production default) costs nothing.
type LRPPHooks struct {
	// OnPrefetch fires on trainer's dispatcher immediately before the ids
	// are fetched from the embedding servers.
	OnPrefetch func(trainer, iter int, ids []uint64)
	// OnInsert fires as a fetched row enters the owner's cache partition.
	OnInsert func(trainer, iter int, id uint64)
	// OnSyncApply fires as iteration iter's merged gradient lands on the
	// owner's cached row.
	OnSyncApply func(owner, iter int, id uint64)
	// OnEvict fires as the row leaves the owner's partition (TTL expiry).
	OnEvict func(owner, iter int, id uint64)
	// OnWriteBack fires after the owner wrote iteration iter's dirty
	// evictions to the embedding servers, once per evicting iteration in
	// iteration order. One write may carry several iterations (see
	// startMaintenance); ids is iter's part of it, ascending, and is valid
	// only for the duration of the call — copy it to keep it.
	OnWriteBack func(owner, iter int, ids []uint64)
	// OnRetire fires when iteration iter is fully retired on the owner
	// (write-backs done, lookahead token released). Strictly in iteration
	// order per trainer.
	OnRetire func(owner, iter int)
}

// The unit the owners merge is one trainer's gradient partial for one
// (row, iteration): the sum of that trainer's own examples' gradients for
// the row, in its sub-batch order (rankPartials). Partials travel as the
// transport wire types directly: the engine's mesh payloads
// (transport.ReplicaMsg, transport.SyncBatchMsg, and in worker mode
// transport.PlanMsg / transport.FusedCollMsg) are identical over
// in-process, simulated, and TCP fabrics — only the TCP mesh additionally
// runs them through the little-endian codec.

// syncClass is the flush a partial travels in: urgent when the next
// iteration reads its row.
func syncClass(next bool) transport.SyncClass {
	if next {
		return transport.SyncUrgent
	}
	return transport.SyncDeferred
}

// Mesh traffic classes for per-phase accounting (Result.MeshClasses).
const (
	classReplica = iota
	classSync
	classColl
	classPlan
	numClasses
)

// lrppEngine is the per-process engine state: shared by all trainers of
// the run in single-process mode, owned by the one local trainer in worker
// mode.
type lrppEngine struct {
	cfg    *Config
	dim    int
	P, L   int
	mesh   transport.Mesh
	coll   collective.Collective // Group in one process, meshColl per worker
	hooks  *LRPPHooks
	prog   *Progress
	worker bool // each trainer is its own process; record losses locally

	losses []float64 // full-batch loss per iteration (written by trainer 0)

	replicaRows    atomic.Int64
	syncEntries    atomic.Int64
	urgentFlushes  atomic.Int64
	delayedFlushes atomic.Int64
	activeTrain    atomic.Int64
	overlapPT      atomic.Int64
	overlapMT      atomic.Int64

	// Per-phase mesh traffic sent by this process (frames + declared
	// bytes), indexed by class.
	classMsgs  [numClasses]atomic.Int64
	classBytes [numClasses]atomic.Int64
}

// send sends payload to trainer `to` over ep, declaring the bytes the
// codec encodes for it (transport.PayloadSize) on every fabric, and charges
// them to the traffic class. The payload is boxed once, by the caller, and
// sized before Send, which transfers it. A nil engine only sends.
func (eng *lrppEngine) send(ep transport.Endpoint, to, class int, payload any) {
	b := int64(transport.PayloadSize(payload))
	ep.Send(to, b, payload)
	if eng != nil {
		eng.classMsgs[class].Add(1)
		eng.classBytes[class].Add(b)
	}
}

// flushItem hands one iteration's remote partials to the delayed-sync
// flusher: parts[c][o] is owner o's class-c partials in plan order. The
// headers are pooled and the partials arena rows; both transfer to the
// owner with the flush. The item and its owner-indexed slices cycle
// between the trainer loop and the flusher (lrppTrainer.flushFree).
type flushItem struct {
	iter  int
	parts [transport.NumSyncClasses][][][]float32
}

// lrppTrainer is one trainer process: a model replica, the owned LRPP
// cache partition, and the goroutines serving it.
type lrppTrainer struct {
	p   int
	eng *lrppEngine

	model   model.Model
	params  []nn.Param  // model.Params(), stable for the run
	segs    [][]float32 // params' gradients, the collective's segments
	values  [][]float32 // params' values, which the all-gather completes
	sum     []float32   // the reduce-scatter's total over this trainer's chunk
	chunk   []nn.Param  // the chunk's pieces of params, their gradients in sum: what opt steps
	lossVec [1]float64  // this trainer's loss term, reduced with segs
	ls      localSlice  // this trainer's slice of the current batch
	opt     optim.Optimizer
	rowOpt  interface {
		optim.Optimizer
		optim.RowOptimizer
	}
	tr transport.Store
	ep transport.Endpoint

	clock stageClock

	// Worker mode only (nil otherwise): the mesh-based collective round,
	// and on ranks ≥ 1 the plan ring fed by the receiver goroutine.
	mcoll *meshColl
	plans *planRing

	// mu guards everything below: the cache partition is touched by the
	// trainer loop (insert/read) and the sync receiver (update/evict). Each
	// waiter has its own condition: merged wakes the stager's merge wait as
	// merges apply, gathered wakes compute's gather as its stage ends and as
	// replicas arrive.
	mu       sync.Mutex
	merged   sync.Cond
	gathered sync.Cond

	ring iterRing
	part partition

	// Hot-path scratch, all guarded by mu (or touched only by the one
	// goroutine noted): the arena every fetch/replica/partial/write-back
	// recycles through, the shared fold buffer and the partials it spent,
	// the radix sort's scratch for eviction batches, and the row table,
	// its id index and the partials by table row (trainer loop only).
	arena    *transport.RowArena
	foldBuf  []float32
	spent    [][]float32
	evSort   []core.Eviction
	tab      [][]float32
	idx      core.IDTable
	partials [][]float32

	evictedRows int64

	// routedCh carries one permit per routed iteration from the loop to the
	// stager (capacity 1, one permit preloaded for iteration 0): stage(x+1)
	// starts only after compute(x) routed its partials.
	routedCh  chan struct{}
	flushQ    chan *flushItem
	flushFree chan *flushItem // flusher → trainer loop: drained items for reuse
	// maintPoke (capacity 1) wakes maintenance when an iteration emits.
	maintPoke chan struct{}
	tokens    chan struct{}
	// credits holds the admission depth's free credits (capacity ℒ): the
	// dispatcher takes one per admitted iteration beside its token, compute
	// returns it once it has routed the iteration and handed back its plan,
	// and the stager adds one each time it deepens the admission (depth).
	credits chan struct{}
	adm     admission // the admission depth D, written by the stager only
	recvWG  sync.WaitGroup
	flushWG sync.WaitGroup
	maintWG sync.WaitGroup
}

// RunLRPP trains with the multi-trainer LRPP engine (§3.3 of the paper):
// cfg.NumTrainers independent trainer processes, each owning the cache
// partition of the ids hashing to it (core.OwnerOf) and reaching the
// embedding tier over its own store trs[p] (one server or an S-way
// ShardedStore — the engine cannot tell). Rows a non-owner reads
// are pushed to it as per-iteration replicas over the mesh; gradient
// updates to remote-owned rows are queued and flushed by a background
// delayed-sync goroutine — batched per owner, contributions the next
// iteration depends on flushed first, the rest in a second frame right
// behind them — so no cross-trainer synchronization sits on the
// forward/backward critical path. Each iteration runs in two halves on two
// goroutines: stage (register, insert the prefetched rows, wait for earlier
// merges, push replicas) and compute (the model, staged by model.Staged,
// and the gradient routing).
// The stager begins stage(x+1) the moment compute(x) has routed its
// partials, and compute runs the embedding-independent layers forward
// before it waits for the staged half and the peers' replicas, and backward
// after the routing — so the flush → merge → replica-push chain between two
// iterations travels under BackwardDense(x), the collective and the
// optimizer step on the owner, and under ForwardDense(x+1) on the reader.
// Each trainer pre-aggregates its own examples' gradients into one
// partial per (row, iteration) in sub-batch order; each owner folds an
// (id, iteration)'s partials in rank order from zero — the rule dense
// gradients follow, and exactly what RunBaseline's ranks.step computes —
// and applies one update per (row, iteration), which keeps the run
// bit-identical to RunBaseline over the same Config: the differential
// property the tests certify for every trainer count and partitioner.
//
// Consistency keeps the paper's ℒ-window shape, enforced per partition: a
// trainer's prefetch for iteration x is issued only once its own iteration
// x−ℒ fully retired (all write-backs landed). Ownership is disjoint, so
// per-trainer windows compose into the global guarantee. ℒ bounds staleness
// and the furthest admission; when a prefetch is issued is the admission
// depth D's business (admitFloor): x is admitted only once x−D has routed,
// and D grows by one, up to ℒ, whenever a staged iteration finds its rows
// still in flight. The oracle decides over ℒ either way.
//
// mesh may be nil, which wires the trainers over an in-process mesh.
func RunLRPP(cfg Config, trs []transport.Store, mesh transport.Mesh) (*Result, error) {
	return runLRPP(cfg, trs, mesh, nil)
}

// runLRPP is RunLRPP with a seam for the package's ordering test: prep,
// when non-nil, sees each trainer after construction, before it starts.
func runLRPP(cfg Config, trs []transport.Store, mesh transport.Mesh, prep func(*lrppTrainer)) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LookAhead < 1 {
		return nil, fmt.Errorf("train: LRPP engine needs LookAhead >= 1, got %d", cfg.LookAhead)
	}
	P := cfg.NumTrainers
	if len(trs) != P {
		return nil, fmt.Errorf("train: %d trainers need %d stores, got %d", P, P, len(trs))
	}
	if mesh == nil {
		mesh = transport.NewInprocMesh(P)
	}
	if mesh.Size() != P {
		return nil, fmt.Errorf("train: mesh has %d endpoints for %d trainers", mesh.Size(), P)
	}

	eng := newLRPPEngine(&cfg, mesh, collective.NewGroup(P))
	trainers := make([]*lrppTrainer, P)
	for p := 0; p < P; p++ {
		t, err := newLRPPTrainer(eng, p, trs[p], mesh.Endpoint(p))
		if err != nil {
			return nil, err
		}
		if prep != nil {
			prep(t)
		}
		trainers[p] = t
	}

	// Oracle: one lookahead walker emits per-trainer plans in iteration
	// order, at most the plan lead ahead of each dispatcher. Each decision
	// goes back to the oracle once its plans are cut, for the next Next to
	// reuse its buffers; the plans, their header and the batch go back once
	// every trainer has routed the iteration (handBack).
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, P)
	oracle.Partitioner = cfg.Partitioner
	stats := make([]core.IterStats, 0, cfg.NumBatches)
	planChs := make([]planChan, P)
	for p := range planChs {
		planChs[p] = make(planChan, planQueue(cfg.LookAhead))
	}
	go func() {
		defer func() {
			for _, ch := range planChs {
				close(ch)
			}
		}()
		for {
			d, ok := oracle.Next()
			if !ok {
				return
			}
			stats = append(stats, d.Stats(oracle.CacheOccupancy()))
			plans := d.Plans(P)
			oracle.Recycle(d)
			for p, pl := range plans {
				planChs[p] <- pl
			}
		}
	}()

	start, cpu0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(t *lrppTrainer) {
			defer wg.Done()
			t.run(planChs[t.p])
		}(trainers[p])
	}
	wg.Wait()
	mesh.Quiesce()
	return eng.collectResult(trainers, stats, start, cpu0)
}

// newLRPPEngine builds the per-process engine state.
func newLRPPEngine(cfg *Config, mesh transport.Mesh, coll collective.Collective) *lrppEngine {
	eng := &lrppEngine{
		cfg:    cfg,
		dim:    cfg.Spec.EmbDim,
		P:      cfg.NumTrainers,
		L:      cfg.LookAhead,
		mesh:   mesh,
		coll:   coll,
		hooks:  cfg.Hooks,
		prog:   cfg.Progress,
		losses: make([]float64, cfg.NumBatches),
	}
	return eng
}

// newLRPPTrainer builds trainer p: its model replica, optimizers, cache
// partition, and pipeline plumbing.
func newLRPPTrainer(eng *lrppEngine, p int, tr transport.Store, ep transport.Endpoint) (*lrppTrainer, error) {
	cfg := eng.cfg
	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	m, err := model.New(cfg.Model, mcfg)
	if err != nil {
		return nil, err
	}
	opt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	rowOpt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	t := &lrppTrainer{
		p: p, eng: eng, model: m, opt: opt, rowOpt: rowOpt,
		tr: tr, ep: ep,
		ring:     newIterRing(cfg.LookAhead, eng.P),
		part:     newPartition(eng.P),
		arena:    transport.Rows(cfg.Spec.EmbDim),
		foldBuf:  make([]float32, cfg.Spec.EmbDim),
		routedCh: make(chan struct{}, 1),
		// One window of routed iterations may queue for the flusher. The
		// only send (compute, step 8) holds no lock, so a full queue is
		// backpressure on the trainer loop and nothing else; the flusher
		// waits on nothing the loop holds, so the queue always drains.
		flushQ: make(chan *flushItem, cfg.LookAhead),
		// An item is away from its iteration's routing until the flusher
		// has sent it: two cover the steady state, a longer flusher queue
		// allocates and the surplus is dropped.
		flushFree: make(chan *flushItem, 2),
		maintPoke: make(chan struct{}, 1),
		tokens:    make(chan struct{}, cfg.LookAhead),
		credits:   make(chan struct{}, cfg.LookAhead),
		adm:       admission{depth: min(cfg.LookAhead, admitFloor)},
	}
	t.merged.L, t.gathered.L = &t.mu, &t.mu
	t.params = m.Params()
	for _, p := range t.params {
		t.segs = append(t.segs, p.Grad)
		t.values = append(t.values, p.Value)
	}
	// The optimizer steps this trainer's chunk only, through pieces of the
	// params built once, so its per-parameter state stays keyed for the run.
	lo, hi := collective.Chunk(collective.Len(t.segs), eng.P, p)
	t.sum = make([]float32, hi-lo)
	collective.Pieces(t.values, lo, hi, func(i, a, b, off int) {
		t.chunk = append(t.chunk, nn.Param{Name: t.params[i].Name, Value: t.values[i][a:b], Grad: t.sum[off : off+b-a]})
	})
	for i := 0; i < cfg.LookAhead; i++ {
		t.tokens <- struct{}{}
	}
	for i := 0; i < t.adm.depth; i++ {
		t.credits <- struct{}{}
	}
	t.routedCh <- struct{}{}
	return t, nil
}

// collectResult assembles the run summary from the trainers this process
// hosted (all of them in single-process mode, exactly one in worker mode)
// plus the oracle stats if the oracle ran here.
func (eng *lrppEngine) collectResult(trainers []*lrppTrainer, stats []core.IterStats, start time.Time, cpu0 time.Duration) (*Result, error) {
	cfg := eng.cfg
	res := &Result{Engine: "lrpp", Iters: cfg.NumBatches}
	var lossSum float64
	for i, l := range eng.losses {
		if i == 0 {
			res.FirstLoss = float32(l)
		}
		res.LastLoss = float32(l)
		lossSum += l
	}
	res.AvgLoss = lossSum / float64(cfg.NumBatches)
	for _, st := range stats {
		res.UniqueIDs += int64(st.UniqueIDs)
		res.CachedHits += int64(st.CachedHits)
		res.Prefetched += int64(st.Prefetched)
	}
	for _, t := range trainers {
		if n := t.part.resident; n != 0 {
			return nil, fmt.Errorf("train: trainer %d still caches %d rows after the final iteration", t.p, n)
		}
		res.Evicted += t.evictedRows
		res.Stages.Trainers = append(res.Stages.Trainers, t.clock.snapshot(t.p))
		res.Depths = append(res.Depths, t.adm.depth)
		res.PeakCache += t.part.peak
		res.Transport.Add(t.tr.Stats())
		addTierHealth(res, t.tr)
		for i, st := range t.tr.ServerStats() {
			if i == len(res.StoreServers) {
				res.StoreServers = append(res.StoreServers, transport.Stats{})
			}
			res.StoreServers[i].Add(st)
		}
	}
	res.Examples = int64(cfg.NumBatches) * int64(cfg.BatchSize)
	res.Elapsed = time.Since(start)
	res.Stages.CPU = processCPU() - cpu0
	res.ReplicaRows = eng.replicaRows.Load()
	res.SyncEntries = eng.syncEntries.Load()
	res.UrgentFlushes = eng.urgentFlushes.Load()
	res.DelayedFlushes = eng.delayedFlushes.Load()
	res.OverlapPrefetchTrain = eng.overlapPT.Load()
	res.OverlapMaintTrain = eng.overlapMT.Load()
	res.Mesh = eng.mesh.Stats()
	res.MeshClasses = MeshTraffic{
		ReplicaMsgs: eng.classMsgs[classReplica].Load(), ReplicaBytes: eng.classBytes[classReplica].Load(),
		SyncMsgs: eng.classMsgs[classSync].Load(), SyncBytes: eng.classBytes[classSync].Load(),
		CollMsgs: eng.classMsgs[classColl].Load(), CollBytes: eng.classBytes[classColl].Load(),
		PlanMsgs: eng.classMsgs[classPlan].Load(), PlanBytes: eng.classBytes[classPlan].Load(),
	}
	return res, nil
}

// run is one trainer process end to end: start the service goroutines,
// drive the iteration loop, then drain and tear everything down.
func (t *lrppTrainer) run(plans planSource) {
	workCh := t.startDispatcher(plans)
	t.startReceiver()
	t.startFlusher()
	t.startMaintenance()

	mark := time.Now()
	for rec := range t.startStager(workCh) {
		mark = t.compute(rec, t.clock.lap(StageHandoff, mark))
	}

	// Teardown: let the flusher send what is queued, wait until maintenance
	// has retired every iteration, then close the endpoint. Retiring the last
	// iteration takes every merge and eviction this partition owes (fed by
	// the other trainers' final flushes): every registered row expires by
	// the last iteration, and its eviction follows all of its merges.
	close(t.flushQ)
	t.flushWG.Wait()
	t.maintWG.Wait()
	t.ep.Close()
	t.recvWG.Wait()
}

// admission is a trainer's admission depth D, with the first iteration
// admitted under it.
type admission struct {
	depth   int
	settled int // iterations before it were admitted under a shallower depth
}

// late records that iteration x found its rows missing when staged and
// reports whether the depth grew by one, up to limit (ℒ). Only an
// iteration admitted under the current depth grows it: one admitted before
// the pipeline filled (x < D) or before the last growth took effect
// (x < settled) says nothing about the current depth, so a run of late
// iterations admitted under one depth grows it once. The iteration the
// new credit admits first is x + D, the first admitted under D + 1.
func (a *admission) late(x, limit int) bool {
	if x < a.depth || x < a.settled || a.depth >= limit {
		return false
	}
	a.settled = x + a.depth
	a.depth++
	return true
}

// admitFloor is the admission depth a trainer starts at, capped at ℒ. The
// depth bounds how early a prefetch is issued, so it is memory, not
// consistency: every iteration admitted ahead holds its plan, its fetched
// rows and its batch. From 4 the depth never grew on a benchmark shape,
// where a fetch lands within one iteration. A floor of 2 held no less
// memory on serve-live (a 42.2 MB peak either way over three pairs), and
// one set of runs saw it cost that workload's training rate and serving
// p95, so the floor is 4.
const admitFloor = 4

// startDispatcher runs the per-trainer prefetch front end: it admits one
// iteration per lookahead token (the ℒ-deep consistency window over this
// partition) and depth credit (at most D admitted and not yet routed), files
// its plan in the iteration's record, and fetches its owned misses
// concurrently with earlier iterations' compute, delivering rows through
// the record's future.
func (t *lrppTrainer) startDispatcher(plans planSource) <-chan *iterRec {
	eng := t.eng
	workCh := make(chan *iterRec, eng.L)
	go func() {
		defer close(workCh)
		for {
			mark := time.Now()
			pl, ok := plans.take()
			if !ok {
				return
			}
			mark = t.clock.lap(StageWaitPlan, mark)
			<-t.tokens
			mark = t.clock.lap(StageWaitToken, mark)
			<-t.credits
			t.clock.lap(StageWaitDepth, mark)
			t.mu.Lock()
			rec := t.ring.at(pl.Dec.Iter)
			rec.plan = pl
			t.mu.Unlock()
			workCh <- rec
			go func(pl *core.Plan, rows chan<- [][]float32) {
				var fetched [][]float32
				if len(pl.Prefetch) > 0 {
					if eng.hooks != nil && eng.hooks.OnPrefetch != nil {
						eng.hooks.OnPrefetch(t.p, pl.Dec.Iter, pl.Prefetch)
					}
					if eng.activeTrain.Load() > 0 {
						eng.overlapPT.Add(1)
					}
					start := time.Now()
					fetched = t.tr.Fetch(pl.Prefetch)
					t.clock.lap(StageBusyDispatch, start)
				}
				rows <- fetched
			}(pl, rec.rows)
		}
	}()
	return workCh
}

// startStager runs stage for every admitted iteration, each as soon as the
// loop has routed the previous iteration's partials (routedCh), and hands
// the iteration to the loop before staging it, so compute's dense forward
// does not wait for the stage. The hand-off never blocks: by the time the
// permit arrives the loop has taken every earlier iteration.
func (t *lrppTrainer) startStager(workCh <-chan *iterRec) <-chan *iterRec {
	out := make(chan *iterRec, 1)
	go func() {
		defer close(out)
		for rec := range workCh {
			<-t.routedCh
			out <- rec
			t.stage(rec)
		}
	}()
	return out
}

// startReceiver drains the mesh endpoint: replica pushes are filed in their
// iteration's record, sync flushes feed the gradient merges. Both are keyed
// by iteration, so arbitrary mesh reordering is harmless.
func (t *lrppTrainer) startReceiver() {
	t.recvWG.Add(1)
	go func() {
		defer t.recvWG.Done()
		for {
			msg, ok := t.ep.Recv()
			if !ok {
				return
			}
			start := time.Now()
			switch pl := msg.Payload.(type) {
			case transport.ReplicaMsg:
				// The push transfers ownership of its header and rows
				// (pooled at the sender in-process, decoded into the same
				// pools by the TCP codec): file it under its owner.
				// compute's step 6 checks it against the plan and releases
				// it once the rows are consumed.
				t.mu.Lock()
				rec := t.ring.at(pl.Iter)
				rec.reps[msg.From] = pl
				rec.repFrom.set(msg.From)
				t.mu.Unlock()
				t.gathered.Signal()
			case transport.SyncBatchMsg:
				// Each flush zips against the slot list its iteration's
				// registration built for the sender and class; every flush
				// of the frame is checked before any partial merges. As
				// with replica pushes the flush transfers ownership of its
				// pooled header, partials and flush list: the merges adopt
				// the partials, the emptied header and the list go back here.
				t.mu.Lock()
				if err := t.mergeFlushesLocked(msg.From, pl.Flushes); err != nil {
					panic(err.Error())
				}
				t.arena.PutN(t.spent)
				t.spent = t.spent[:0]
				t.mu.Unlock()
				for _, f := range pl.Flushes {
					transport.PutRowSlice(f.Partials)
				}
				transport.PutSyncList(pl.Flushes)
			case transport.PlanMsg:
				// Worker mode only: the rank-0 process streams oracle plans
				// to the other ranks.
				if t.plans == nil {
					panic(fmt.Sprintf("train: trainer %d received a plan, but takes none over the mesh", t.p))
				}
				t.plans.put(pl.Plan)
			case transport.FusedCollMsg:
				// Worker mode only: the collective round's chunks.
				if t.mcoll == nil {
					panic(fmt.Sprintf("train: trainer %d received a collective message outside worker mode", t.p))
				}
				if err := t.mcoll.deliver(pl); err != nil {
					panic(err.Error())
				}
			default:
				panic(fmt.Sprintf("train: trainer %d received unknown mesh payload %T", t.p, msg.Payload))
			}
			t.clock.lap(StageBusyReceiver, start)
		}
	}()
}

// startFlusher runs the delayed-sync sender: per routed iteration it sends
// each owner the partials of rows the next iteration reads (the urgent
// flush, which the owner's stage of that iteration waits for), then each
// owner the rest (the deferred flush, which nothing waits for until the
// rows' last use), one frame per owner and class. So the trainer loop
// never blocks on cross-trainer traffic, and no deferred partial rides in
// front of an urgent one.
func (t *lrppTrainer) startFlusher() {
	eng := t.eng
	t.flushWG.Add(1)
	go func() {
		defer t.flushWG.Done()
		for it := range t.flushQ {
			start := time.Now()
			for c := range it.parts {
				for o, parts := range it.parts[c] {
					if len(parts) == 0 {
						continue
					}
					// The flush list transfers to the owner with the frame.
					f := transport.GetSyncList(1)
					f[0] = transport.SyncMsg{Iter: it.iter, Class: transport.SyncClass(c), Partials: parts}
					it.parts[c][o] = nil
					eng.send(t.ep, o, classSync, transport.SyncBatchMsg{Flushes: f})
					if transport.SyncClass(c) == transport.SyncUrgent {
						eng.urgentFlushes.Add(1)
					} else {
						eng.delayedFlushes.Add(1)
					}
				}
			}
			select {
			case t.flushFree <- it:
			default:
			}
			t.clock.lap(StageBusyFlusher, start)
		}
	}()
}

// startMaintenance runs the background write-back stage. Iterations may
// emit out of order (a delayed contribution can finish a newer iteration's
// last merge first), so on each wake-up maintenance walks the ring from the
// oldest unretired iteration and takes the emitted run it finds there:
// tokens release strictly in order. The run is written with ONE
// Store.Write over the concatenation of its id lists, so a slow tier falls
// behind by whole batches instead of one round trip per iteration. Only
// then does each iteration of the run, in order, fire OnWriteBack with its
// own ids and retire (OnRetire, Progress, record cleared, token):
// visibility moves only at the batch boundary, as in Obladi's epochs. The
// ids of one batch are distinct — an id evicted at x is next prefetched for
// some y ≥ x+ℒ, and that prefetch waits for x's retirement — and at most
// one write is in flight.
func (t *lrppTrainer) startMaintenance() {
	eng := t.eng
	t.maintWG.Add(1)
	go func() {
		defer t.maintWG.Done()
		// Write-back scratch reused across batches: callees treat the id and
		// row slices as call-scoped (transports copy or encode, the hook only
		// iterates), so one set serves the whole run. ends[i] is where
		// iteration next+i's ids end in ids.
		var (
			ids  []uint64
			rows [][]float32
			ends []int
		)
		for next := 0; next < eng.cfg.NumBatches; {
			<-t.maintPoke
			began := time.Now()
			ids, rows, ends = ids[:0], rows[:0], ends[:0]
			t.mu.Lock()
			for it := next; t.ring.emitted(it); it++ {
				for _, ev := range t.ring.at(it).evs {
					ids = append(ids, ev.ID)
					rows = append(rows, ev.Row)
				}
				ends = append(ends, len(ids))
			}
			t.mu.Unlock()
			if len(ids) > 0 {
				if eng.activeTrain.Load() > 0 {
					eng.overlapMT.Add(1)
				}
				t.tr.Write(ids, rows)
				// Every evicted row was fetched through the arena-backed
				// transports and adopted by the partition; the durable
				// write-back is its single recycle point.
				t.arena.PutN(rows)
			}
			start := 0
			for _, end := range ends {
				if end > start && eng.hooks != nil && eng.hooks.OnWriteBack != nil {
					eng.hooks.OnWriteBack(t.p, next, ids[start:end:end])
				}
				start = end
				if eng.hooks != nil && eng.hooks.OnRetire != nil {
					eng.hooks.OnRetire(t.p, next)
				}
				if eng.prog != nil {
					eng.prog.noteRetire(t.p, next)
				}
				t.mu.Lock()
				t.ring.retire(next)
				t.mu.Unlock()
				t.tokens <- struct{}{}
				next++
			}
			t.clock.lap(StageBusyMaint, began)
		}
	}()
}

// stage is the embedding half of iteration x, steps 1–4: register its
// merges, insert its prefetched rows, wait for earlier merges on the rows
// it uses, and push its replicas. The stager runs it while the loop is
// still in compute(x−1)'s dense backward, collective and optimizer step,
// which touch dense state only. That is safe because compute(x−1) has
// routed — after routing it touches no embedding state of x−1 again (see
// maybeEmitLocked) — and because no merge of x can land before the
// snapshot in step 4: a peer computes its x partial from that replica, and
// our own is deposited in compute(x), after the stage.
func (t *lrppTrainer) stage(rec *iterRec) {
	eng := t.eng
	pt := &t.part
	pl := rec.plan
	x := pl.Dec.Iter
	start := time.Now()

	// 1. Register this iteration's merge obligations and eviction counts
	// before pushing any replica: a peer computes a partial for one of our
	// rows only from the iteration-x replica of it (step 4), so registration
	// always precedes the first deposit. Registration resolves every owned
	// row to its slot once and refreshes its TTL; the steps below, compute
	// and the sync receiver index the slab through slots, the receiver
	// through the per-reader, per-class lists built here. A slot still live
	// here already had a TTL ≥ x (its row stayed cached for x), so no
	// earlier merge landing before step 2 evicts it.
	t.mu.Lock()
	slots := rec.slots[:0]
	for c := range rec.sync {
		for q := range rec.sync[c] {
			rec.sync[c][q] = rec.sync[c][q][:0]
		}
	}
	for k, id := range pl.Owned {
		s := pt.slot(id)
		users := rankBits(pl.OwnedUsers[k])
		pt.expect(s, x, users)
		pt.recs[s].ttl = pl.OwnedTTL[k]
		slots = append(slots, s)
		lists := rec.sync[syncClass(pl.OwnedNext[k])]
		for others := users &^ (1 << uint(t.p)); others != 0; others &= others - 1 {
			q := bits.TrailingZeros64(uint64(others))
			if len(lists[q]) == 0 {
				rec.owed++ // one flush per non-empty list
			}
			lists[q] = append(lists[q], s)
		}
	}
	rec.slots = slots
	rec.expiring = len(pl.Expiring)
	rec.registered = true
	t.mu.Unlock()

	// 2. Insert the prefetched owned rows. The partition adopts the row
	// buffers by reference (they return to the arena at write-back); the
	// fetch's header slice is dead after the loop, so recycle it. Rows not
	// yet arrived mean the prefetch was issued too late: deepen the
	// admission (admission.late) before waiting.
	mark := time.Now()
	var rows [][]float32
	select {
	case rows = <-rec.rows:
	default:
		if t.adm.late(x, eng.L) {
			t.credits <- struct{}{}
		}
		rows = <-rec.rows
	}
	waitRows := time.Since(mark)
	t.mu.Lock()
	k := 0
	for i, id := range pl.Prefetch {
		k = rec.ownedFrom(k, id)
		if eng.hooks != nil && eng.hooks.OnInsert != nil {
			eng.hooks.OnInsert(t.p, x, id)
		}
		pt.insert(slots[k], rows[i])
	}
	transport.PutRowSlice(rows)

	// 3. Wait until every owned row used this iteration has absorbed all
	// merges from earlier iterations (the per-row sync horizon).
	mark = time.Now()
	for slices.ContainsFunc(slots, func(s int32) bool { return !pt.settled(s, x) }) {
		t.merged.Wait()
	}
	waitMerges := time.Since(mark)

	// 4. Snapshot and push replicas to the non-owners reading our rows.
	for q, ids := range pl.ReplicaOut {
		if len(ids) == 0 {
			continue
		}
		// Snapshot into pooled buffers, in ReplicaOut order, which is the
		// order of the reader's plan: the header and rows transfer to the
		// receiver with the push (in-process meshes deliver by
		// reference), which recycles them after consuming the iteration —
		// so nothing here, including the counters below, may touch the
		// message after Send.
		snap := &rec.outs[q]
		*snap = transport.ReplicaMsg{Iter: x, Rows: transport.GetRowSlice(len(ids))}
		t.arena.GetN(snap.Rows)
		k := 0
		for i, id := range ids {
			k = rec.ownedFrom(k, id)
			src := pt.recs[slots[k]].row
			if src == nil {
				panic(fmt.Sprintf("train: trainer %d iter %d: replica id %d missing from partition", t.p, x, id))
			}
			copy(snap.Rows[i], src)
		}
	}
	// The snapshots are taken: compute may gather and deposit from here on.
	rec.staged = true
	t.mu.Unlock()
	t.gathered.Signal()
	// The sends read the record's snapshots, not the plan: compute may
	// route x and hand the plan back while they are still going.
	for q := range rec.outs {
		n := len(rec.outs[q].Rows)
		if n == 0 {
			continue
		}
		eng.send(t.ep, q, classReplica, rec.outs[q])
		rec.outs[q] = transport.ReplicaMsg{}
		eng.replicaRows.Add(int64(n))
	}
	t.clock.add(StageWaitRows, waitRows)
	t.clock.add(StageWaitMerges, waitMerges)
	t.clock.add(StageBusyStager, time.Since(start)-waitRows-waitMerges)
}

// compute is the model half of iteration x, steps 5–9, on the trainer
// loop. It starts while stage(x) may still be running and waits for it only
// before the gather; once it has routed x's partials (step 8) it permits
// stage(x+1), whose replica push then travels under this iteration's dense
// backward, collective and optimizer step. It charges its time from mark
// on to the loop stages, one lap each, and returns where the last ended.
func (t *lrppTrainer) compute(rec *iterRec, mark time.Time) time.Time {
	eng := t.eng
	pt := &t.part
	pl := rec.plan
	d := pl.Dec
	x := d.Iter

	// 5. Dense forward: the part of the model that reads no embedding row
	// runs while stage(x) and the peers' stages push this iteration's
	// replicas.
	spec := eng.cfg.Spec
	ls := &t.ls
	ls.extract(d.Batch, d.Assign, t.p, spec.NumNumeric)
	idle := len(ls.mine) == 0 // a partitioner may leave a trainer idle for a batch
	nn.ZeroGrads(t.params)
	if !idle {
		eng.activeTrain.Add(1)
		t.model.ForwardDense(ls.dense)
		eng.activeTrain.Add(-1)
	}
	mark = t.clock.lap(StageForwardDense, mark)

	// 6. Wait for stage(x) and the replicas we need, then gather this
	// trainer's rows into the iteration's row table: its owned rows in
	// Owned order, then its remote ones in Remote order, zipped per owner
	// with the rows that owner pushed, which follow the same ids once
	// checkReplicas has matched their counts.
	// idx maps each id to its table position: reset here, it hands out
	// slots in insertion order, so an id's slot is the position its row is
	// appended at. The table aliases partition and replica rows only until
	// fillEmb copies them.
	t.mu.Lock()
	for !rec.staged {
		t.gathered.Wait()
	}
	mark = t.clock.lap(StageWaitStage, mark)
	for rankBits(pl.ReplicaFrom)&^rec.repFrom != 0 {
		t.gathered.Wait()
	}
	mark = t.clock.lap(StageWaitReplicas, mark)
	// Every push this iteration reads has arrived and no other will, so the
	// record's reps are read below without mu until retirement clears them.
	slots, reps := rec.slots, rec.reps
	if err := t.checkReplicas(pl, reps); err != nil {
		panic(err.Error())
	}
	var cur [core.MaxTrainers]int
	tab, idx := t.tab[:0], &t.idx
	idx.Reset()
	for k, s := range slots {
		if !pl.OwnedUsers[k].Has(t.p) {
			continue
		}
		row := pt.recs[s].row
		if row == nil {
			panic(fmt.Sprintf("train: trainer %d iter %d: owned id %d missing from partition (oracle consistency violated)", t.p, x, pl.Owned[k]))
		}
		idx.Put(pl.Owned[k])
		tab = append(tab, row)
	}
	t.mu.Unlock()
	nOwn := len(tab)
	for k, id := range pl.Remote {
		o := pl.RemoteOwner[k]
		idx.Put(id)
		tab = append(tab, reps[o].Rows[cur[o]])
		cur[o]++
	}
	t.tab = tab
	if used := ls.index(d.Batch, spec.NumCategorical, idx, len(tab)); used != len(tab) {
		panic(fmt.Sprintf("train: trainer %d iter %d: plan gathers %d rows, the examples read %d (oracle consistency violated)", t.p, x, len(tab), used))
	}
	ls.fillEmb(tab, spec.NumCategorical, eng.dim)
	// fillEmb copied every row, so the replica pushes this trainer adopted
	// are dead: return each to the pools its sender drew it from.
	for _, rep := range reps {
		transport.ReleasePayload(rep)
	}

	// 7. Head forward, loss, and the backward pass as far as the embedding
	// gradient — final here, before any dense-only layer has run backward.
	eng.activeTrain.Add(1)
	t.lossVec[0] = 0
	var dEmb *tensor.Matrix
	if !idle {
		t.lossVec[0] = ls.lossGrad(t.model.ForwardSparse(ls.emb, ls.cats))
		dEmb = t.model.BackwardSparse(ls.dlogits)
	}
	mark = t.clock.lap(StageSparse, mark)

	// 8. Pre-aggregate this trainer's gradients into one partial per table
	// row (arena rows, sub-batch order) and route them now, so the urgent
	// flush, the owners' merges and their next replica push (stage(x+1),
	// permitted at the end of this step) travel while every trainer is
	// still inside step 9: partials for owned rows merge locally (ids used
	// only here are the LRPP fast path — no mesh traffic at all);
	// remote-owned ones join their owner's urgent or deferred flush for the
	// delayed-sync flusher, in plan order. The partials own their memory — models reuse the
	// dEmb buffer across iterations, and a deferred merge or delayed flush
	// outlives this backward pass — and whoever folds them recycles them.
	parts := slices.Grow(t.partials[:0], len(tab))[:len(tab)]
	t.partials = parts
	t.arena.GetN(parts)
	rankPartials(parts, ls.pos, dEmb, eng.dim)
	eng.syncEntries.Add(int64(len(parts)))
	var fi *flushItem
	select {
	case fi = <-t.flushFree:
	default:
		fi = new(flushItem)
		for c := range fi.parts {
			fi.parts[c] = make([][][]float32, eng.P)
		}
	}
	fi.iter = x
	for k := range pl.Remote {
		run := &fi.parts[syncClass(pl.RemoteNext[k])][pl.RemoteOwner[k]]
		if *run == nil {
			*run = transport.GetRowSlice(0)
		}
		*run = append(*run, parts[nOwn+k])
	}
	t.mu.Lock()
	j := 0
	for k, s := range slots {
		if pl.OwnedUsers[k].Has(t.p) {
			t.depositLocked(s, x, t.p, parts[j])
			j++
		}
	}
	t.arena.PutN(t.spent)
	t.spent = t.spent[:0]
	rec.routed = true
	rec.plan = nil
	t.maybeEmitLocked(rec)
	t.mu.Unlock()
	t.handBack(pl)
	t.credits <- struct{}{}
	t.flushQ <- fi
	t.routedCh <- struct{}{}
	mark = t.clock.lap(StageRoute, mark)

	// 9. Dense backward, then ONE chunk-owned collective round: the
	// reduce-scatter folds this trainer's chunk of every rank's gradients
	// and the loss terms in rank order from zero, the optimizer steps the
	// chunk, and the all-gather returns every other chunk's updated
	// parameters — the identical call sequence and summation on every
	// trainer. The gradients are zeroed at the next iteration's start.
	if !idle {
		t.model.BackwardDense()
	}
	mark = t.clock.lap(StageBackwardDense, mark)
	mark = t.collLap(mark, eng.coll.ReduceScatter(t.p, t.segs, t.lossVec[:], t.sum))
	t.opt.Step(t.chunk)
	mark = t.clock.lap(StageStep, mark)
	mark = t.collLap(mark, eng.coll.AllGather(t.p, t.values, t.lossVec[:]))
	eng.activeTrain.Add(-1)
	// All ranks hold the identical reduced loss; in single-process mode the
	// losses slice is shared so only trainer 0 writes it, in worker mode
	// every process records its own copy.
	if t.p == 0 || eng.worker {
		eng.losses[x] = t.lossVec[0]
	}
	if eng.prog != nil {
		eng.prog.noteExamples(len(ls.mine))
	}
	return t.clock.lap(StageStep, mark)
}

// handBack hands back the plan of an iteration this trainer has routed.
// Routing is the last step that reads a plan or its batch: the stager's
// replica sends read the record's snapshots, and after routing compute
// touches dense state only and retirement only the evictions. A plan the
// oracle cut returns to it once every trainer has handed its plan back (in
// one process, over the in-process and simulated meshes, which pass plans
// by pointer, that is each reader's own routing); a plan decoded into a
// plan ring buffer frees the buffer, last: the receiver may decode the next
// plan into it at once.
func (t *lrppTrainer) handBack(pl *core.Plan) {
	x := pl.Dec.Iter
	pl.Release()
	if t.plans != nil {
		t.plans.handBack(x, pl)
	}
}

// collLap charges one collective phase that began at mark and waited wait
// for the other ranks: the wait to coll-wait, the rest to coll-fold. It
// returns now.
func (t *lrppTrainer) collLap(mark time.Time, wait time.Duration) time.Time {
	now := time.Now()
	d := now.Sub(mark)
	wait = min(wait, d)
	t.clock.add(StageCollWait, wait)
	t.clock.add(StageCollFold, d-wait)
	return now
}

// checkReplicas refuses iteration x's replica pushes unless each carries
// exactly as many rows as the plan reads from its owner, each row dim wide,
// so the gather never indexes past a push.
func (t *lrppTrainer) checkReplicas(pl *core.Plan, reps []transport.ReplicaMsg) error {
	var want [core.MaxTrainers]int
	for _, o := range pl.RemoteOwner {
		want[o]++
	}
	for o := range reps {
		rows := reps[o].Rows
		if len(rows) != want[o] {
			return fmt.Errorf("train: trainer %d: replica push from trainer %d for iteration %d carries %d rows, the plan lists %d", t.p, o, pl.Dec.Iter, len(rows), want[o])
		}
		if len(rows) > 0 && len(rows[0]) != t.eng.dim {
			return fmt.Errorf("train: trainer %d: replica push from trainer %d for iteration %d carries rows of width %d, want %d", t.p, o, pl.Dec.Iter, len(rows[0]), t.eng.dim)
		}
	}
	return nil
}

// admitFlushLocked refuses sync flush f from trainer from unless its
// iteration is registered here and its partials match, one for one, the
// slot list that registration built for the sender and class, each dim
// wide, and marks the flush landed. Caller holds t.mu.
func (t *lrppTrainer) admitFlushLocked(from int, f *transport.SyncMsg) error {
	if f.Class >= transport.NumSyncClasses {
		return fmt.Errorf("train: trainer %d: sync flush from trainer %d for iteration %d has class %d", t.p, from, f.Iter, f.Class)
	}
	rec := t.ring.registered(f.Iter)
	if rec == nil {
		return fmt.Errorf("train: trainer %d: sync flush from trainer %d for iteration %d carries %d partials, the iteration is not staged here (0 listed)", t.p, from, f.Iter, len(f.Partials))
	}
	want := rec.sync[f.Class][from]
	if len(f.Partials) != len(want) || len(want) == 0 || rec.landed[f.Class].has(from) {
		return fmt.Errorf("train: trainer %d: class-%d sync flush from trainer %d for iteration %d carries %d partials, the plan lists %d (landed before: %v)", t.p, f.Class, from, f.Iter, len(f.Partials), len(want), rec.landed[f.Class].has(from))
	}
	if w := len(f.Partials[0]); w != t.eng.dim {
		return fmt.Errorf("train: trainer %d: class-%d sync flush from trainer %d for iteration %d carries partials of width %d, want %d", t.p, f.Class, from, f.Iter, w, t.eng.dim)
	}
	rec.landed[f.Class].set(from)
	return nil
}

// mergeFlushesLocked deposits the partials of one sync frame from trainer
// from, each flush zipped against the slot list its iteration's
// registration built for the sender and class. It refuses the whole frame
// before depositing anything unless every flush is admitted. Caller holds
// t.mu.
func (t *lrppTrainer) mergeFlushesLocked(from int, flushes []transport.SyncMsg) error {
	for i := range flushes {
		if err := t.admitFlushLocked(from, &flushes[i]); err != nil {
			return err
		}
	}
	for _, f := range flushes {
		rec := t.ring.registered(f.Iter)
		for i, s := range rec.sync[f.Class][from] {
			t.depositLocked(s, f.Iter, from, f.Partials[i])
		}
		rec.owed--
		t.maybeEmitLocked(rec)
	}
	return nil
}

// depositLocked takes ownership of trainer from's partial for (slot s,
// iter) and applies every merge that became ready. Caller holds t.mu.
func (t *lrppTrainer) depositLocked(s int32, iter, from int, g []float32) {
	im, parts := t.part.merge(s, iter)
	if im == nil {
		panic(fmt.Sprintf("train: trainer %d: contribution for unregistered iter %d of id %d", t.p, iter, t.part.recs[s].id))
	}
	if !im.expect.clearBit(from) {
		panic(fmt.Sprintf("train: trainer %d: unexpected or repeated partial from trainer %d for id %d iter %d", t.p, from, t.part.recs[s].id, iter))
	}
	parts[from] = g
	t.applyReadyLocked(s)
}

// applyReadyLocked applies slot s's head-of-queue merges while they are
// complete: fold the per-rank partials in rank order from zero, update the
// row once, and evict + queue the write-back when the iteration was the row's
// last use. Caller holds t.mu.
func (t *lrppTrainer) applyReadyLocked(s int32) {
	eng := t.eng
	pt := &t.part
	applied := false
	for im, parts := pt.ready(s); im != nil; im, parts = pt.ready(s) {
		applied = true
		iter := im.iter
		rec := &pt.recs[s]
		if rec.row == nil {
			panic(fmt.Sprintf("train: trainer %d iter %d: sync for id %d landed after eviction", t.p, iter, rec.id))
		}
		// Fold into the trainer's persistent buffer (mu is held).
		g := t.foldBuf
		t.spent = foldParts(g, parts, t.spent)
		t.rowOpt.UpdateRow(rec.id, rec.row, g)
		if eng.hooks != nil && eng.hooks.OnSyncApply != nil {
			eng.hooks.OnSyncApply(t.p, iter, rec.id)
		}
		pt.pop(s)
		if rec.ttl != iter {
			continue
		}
		if rec.pending > 0 {
			panic(fmt.Sprintf("train: trainer %d iter %d: sync for id %d landed after eviction", t.p, rec.merges[0].iter, rec.id))
		}
		if eng.hooks != nil && eng.hooks.OnEvict != nil {
			eng.hooks.OnEvict(t.p, iter, rec.id)
		}
		it := t.ring.at(iter)
		it.evs = append(it.evs, pt.evict(s))
		it.expiring--
		t.evictedRows++
		t.maybeEmitLocked(it)
		break
	}
	if applied {
		t.merged.Signal() // the merge head moved: wake the stager's merge wait
	}
}

// foldParts sums one (id, iteration)'s per-rank partials into g in rank
// order from zero — zeroing then adding keeps the per-element summation
// order, and therefore the bits, of foldRankGrads' fresh accumulator. The
// fold is each partial's last use: it is appended to spent, which the
// caller returns to the arena with one PutN per message or route step, and
// its slot empties, leaving parts ready for reuse.
func foldParts(g []float32, parts, spent [][]float32) [][]float32 {
	clear(g)
	for r, part := range parts {
		if part != nil {
			collective.AddF32(g, part)
			spent = append(spent, part)
			parts[r] = nil
		}
	}
	return spent
}

// maybeEmitLocked marks an iteration emitted, its eviction batch sorted for
// maintenance, once the trainer loop has routed its partials, its last
// expiring row has evicted and every peer's flush for it has landed, and
// wakes maintenance without blocking.
// Routing, not the end of the iteration, is the gate: retirement is about
// embedding write-backs, and after routing the loop touches no embedding
// state of the iteration again — the dense backward, collective and
// optimizer step that may still be running change dense parameters only.
// The ℒ-window law (prefetch x+ℒ waits for x's write-backs) and the fuzz
// auditor's four invariants are about those embedding events, so they hold
// unchanged (FuzzLRPPDifferential is the proof). Each iteration routes once
// and its count reaches zero once, so it emits once. Caller holds t.mu.
func (t *lrppTrainer) maybeEmitLocked(rec *iterRec) {
	if !rec.routed || rec.expiring != 0 || rec.owed != 0 {
		return
	}
	rec.emitted = true
	var top uint64
	for _, ev := range rec.evs {
		top |= ev.ID
	}
	rec.evs, t.evSort = core.SortByID(rec.evs, t.evSort, top, func(ev *core.Eviction) uint64 { return ev.ID })
	select {
	case t.maintPoke <- struct{}{}:
	default: // a wake-up is already pending, and the walk takes every emitted iteration
	}
}
