package train

import (
	"fmt"
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

// syncBatchBytes is the size of one coalesced sync frame, exactly what the
// codec writes for it (len(transport.EncodePayload(msg)), pinned by
// TestSyncBatchBytesMatchesCodec): payload tag and flush count, then per
// iteration table its header (iteration, reserved byte, width, row count)
// and one id plus dim float32s per partial.
func syncBatchBytes(flushes []transport.SyncMsg, dim int) int64 {
	b := int64(1 + 4)
	for _, f := range flushes {
		b += 8 + 1 + 4 + 4 + int64(len(f.IDs))*(8+4*int64(dim))
	}
	return b
}

// replicaMsgBytes models the wire size of one replica push of n rows.
func replicaMsgBytes(n, dim int) int64 {
	return 8 + int64(n)*(8+4*int64(dim))
}

// lrppColl is the collective layer a trainer steps its dense gradients and
// loss through, as one fused round per iteration: the in-process
// collective.Group when all trainers share an address space, or the
// mesh-based reducer (meshColl, meshcoll.go) when each trainer is its own
// process. Every implementation folds per segment in rank order from zero,
// so the result bits are identical.
type lrppColl = collective.Collective

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
	lag    int // delayed-sync flush lag in iterations (0 or 1)
	mesh   transport.Mesh
	coll   lrppColl
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

	// collArrive[x%2][p] is when trainer p arrived at iteration x's
	// in-process collective, in nanoseconds since epoch; the latest arrival
	// splits each rank's collective time into wait and fold (collWait).
	epoch      time.Time
	collArrive [2][core.MaxTrainers]atomic.Int64
}

// countSend charges one sent mesh frame to its traffic class.
func (eng *lrppEngine) countSend(class int, bytes int64) {
	eng.classMsgs[class].Add(1)
	eng.classBytes[class].Add(bytes)
}

// rankBits is a trainer-set bitmask. Trainer counts are capped at
// core.MaxTrainers (Config.validate enforces it), which lets the per-(id,
// iteration) contributor bookkeeping and the per-iteration replica-arrival
// set live in one machine word each instead of a map allocated per merge.
type rankBits uint64

func (b rankBits) has(r int) bool { return b&(1<<uint(r)) != 0 }
func (b *rankBits) set(r int)     { *b |= 1 << uint(r) }

// clearBit drops rank r's bit and reports whether it was set.
func (b *rankBits) clearBit(r int) bool {
	was := b.has(r)
	*b &^= 1 << uint(r)
	return was
}

// slotRec is the owner's one record per row of its partition, from the
// iteration that first registers the row (before its prefetch lands) until
// the row's eviction.
type slotRec struct {
	id    uint64
	row   []float32 // nil until the prefetched row is inserted
	ttl   int
	dirty bool
	// merges are the row's pending per-iteration merges. Registration
	// appends them in iteration order and they apply strictly in that
	// order, so the row replays the exact update sequence the baseline
	// produces. Entries past len keep their parts tables for the next
	// registration, and the array stays with the slot when it is recycled.
	merges []iterMerge
}

// iterMerge holds one (row, iteration)'s partials, one slot per rank, until
// every expected trainer has reported (expect, the ranks still owing one,
// is empty).
type iterMerge struct {
	iter   int
	expect rankBits
	parts  [][]float32 // rank → arena-backed partial; nil until deposited
}

// partition is an owner's cache partition: a slab of slot records, one per
// row it is responsible for. Slots are private to the trainer — allocated
// at a row's registration, recycled at its eviction, so the slab is bounded
// by the partition's peak occupancy — and the id → slot map is consulted
// once per row per registration and once per received remote partial;
// every other step of an iteration indexes the slab through the slots its
// registration recorded. It is not synchronized (the trainer's mu guards
// it), and records and their merges are reused in place, so the steady
// state allocates nothing.
type partition struct {
	ranks    int
	slotOf   map[uint64]int32
	recs     []slotRec
	free     []int32
	pending  int // registered merges not yet applied
	resident int // rows inserted and not yet evicted
	peak     int
}

func newPartition(ranks int) partition {
	return partition{ranks: ranks, slotOf: make(map[uint64]int32)}
}

// slot returns id's record, allocating one when the id has none.
func (pt *partition) slot(id uint64) int32 {
	if s, ok := pt.slotOf[id]; ok {
		return s
	}
	var s int32
	if n := len(pt.free); n > 0 {
		s = pt.free[n-1]
		pt.free = pt.free[:n-1]
	} else {
		s = int32(len(pt.recs))
		pt.recs = append(pt.recs, slotRec{})
	}
	pt.recs[s].id = id
	pt.slotOf[id] = s
	return s
}

// expect registers iteration iter's merge on slot s, awaiting one partial
// from every rank in users.
func (pt *partition) expect(s int32, iter int, users rankBits) {
	rec := &pt.recs[s]
	n := len(rec.merges)
	if n < cap(rec.merges) {
		rec.merges = rec.merges[:n+1]
	} else {
		rec.merges = append(rec.merges, iterMerge{})
	}
	im := &rec.merges[n]
	if im.parts == nil {
		im.parts = make([][]float32, pt.ranks)
	}
	im.iter, im.expect = iter, users
	pt.pending++
}

// merge returns slot s's pending merge for iteration iter, nil if none.
// The pointer is valid until the slot's next expect or pop.
func (pt *partition) merge(s int32, iter int) *iterMerge {
	m := pt.recs[s].merges
	for i := range m {
		if m[i].iter == iter {
			return &m[i]
		}
	}
	return nil
}

// ready returns slot s's oldest pending merge once every expected partial
// has arrived, nil otherwise. The pointer is valid until the slot's next
// expect or pop.
func (pt *partition) ready(s int32) *iterMerge {
	if m := pt.recs[s].merges; len(m) > 0 && m[0].expect == 0 {
		return &m[0]
	}
	return nil
}

// pop retires slot s's oldest merge, whose partials the fold has already
// returned to the arena: the others move up, and its emptied parts table
// moves past the end for the next registration to reuse.
func (pt *partition) pop(s int32) {
	rec := &pt.recs[s]
	m := rec.merges
	head := m[0].parts
	copy(m, m[1:])
	m[len(m)-1] = iterMerge{parts: head}
	rec.merges = m[:len(m)-1]
	pt.pending--
}

// insert adopts row as slot s's resident value.
func (pt *partition) insert(s int32, row []float32) {
	rec := &pt.recs[s]
	rec.row, rec.dirty = row, false
	pt.resident++
	if pt.resident > pt.peak {
		pt.peak = pt.resident
	}
}

// evict frees slot s and hands its row over for write-back.
func (pt *partition) evict(s int32) core.Eviction {
	rec := &pt.recs[s]
	ev := core.Eviction{ID: rec.id, Row: rec.row}
	delete(pt.slotOf, rec.id)
	rec.row = nil
	pt.free = append(pt.free, s)
	pt.resident--
	return ev
}

// flushItem hands one iteration's remote partials to the delayed-sync
// flusher, split by criticality, one ascending id/partial run per owner.
// The runs are pooled and the partials arena rows; both transfer to the
// owner with the flush. The item and its owner-indexed slices cycle
// between the trainer loop and the flusher (lrppTrainer.flushFree).
type flushItem struct {
	iter   int
	urgent []transport.SyncMsg // owner → partials needed next iteration
	lazy   []transport.SyncMsg // owner → partials deferrable off the critical path
}

// maintJob is one iteration's dirty evictions bound for write-back.
type maintJob struct {
	iter      int
	evictions []core.Eviction
}

// lrppWork is one iteration moving through a trainer's private pipeline:
// admitted by the dispatcher, staged by the stager, computed by the loop.
type lrppWork struct {
	plan *core.Plan
	rows chan [][]float32 // buffered(1); the prefetch goroutine delivers once
	// slots[k] is the slot of plan.Owned[k] (in one of lrppTrainer.slotBuf),
	// written by stage and read by compute once staged is set.
	slots  []int32
	staged bool // guarded by the trainer's mu: stage has snapshotted the replicas
}

// lrppTrainer is one trainer process: a model replica, the owned LRPP
// cache partition, and the goroutines serving it.
type lrppTrainer struct {
	p   int
	eng *lrppEngine

	model   model.Model
	params  []nn.Param  // model.Params(), stable for the run
	segs    [][]float32 // params' gradients, the fused all-reduce's segments
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

	// Worker mode only (nil otherwise): the mesh-based collective reducer
	// and the plan resequencer fed by the receiver goroutine.
	mcoll   *meshColl
	planBox *planSeq

	// mu guards everything below: the cache partition is touched by the
	// trainer loop (insert/read) and the sync receiver (update/evict).
	mu   sync.Mutex
	cond *sync.Cond

	part     partition
	expiring map[int]int                  // iter → owned rows still to evict
	evbatch  map[int][]core.Eviction      // iter → collected write-backs
	routed   map[int]bool                 // iter → trainer loop deposited and queued its partials
	repRows  map[int]transport.ReplicaMsg // iter·P + owner → replica push received (owned here)
	repFrom  map[int]rankBits             // iter → owners heard from

	// Hot-path scratch, all guarded by mu (or touched only by the one
	// goroutine noted): the arena every fetch/replica/partial/write-back
	// recycles through, the shared fold buffer and the partials it spent,
	// the row table, its id index and the partials by table row (trainer
	// loop only), the slot lists of the staged iterations (stager only;
	// iteration x uses slotBuf[x%2], free again once x's compute ended,
	// which precedes stage(x+2)), and the eviction-batch free list.
	arena    *transport.RowArena
	foldBuf  []float32
	spent    [][]float32
	tab      [][]float32
	idx      map[uint64]int32
	partials [][]float32
	slotBuf  [2][]int32
	evFree   [][]core.Eviction

	evictedRows int64

	// routedCh carries one permit per routed iteration from the loop to the
	// stager (capacity 1, one permit preloaded for iteration 0): stage(x+1)
	// starts only after compute(x) routed its partials.
	routedCh  chan struct{}
	flushQ    chan *flushItem
	flushFree chan *flushItem // flusher → trainer loop: drained items for reuse
	maintCh   chan maintJob
	tokens    chan struct{}
	recvWG    sync.WaitGroup
	flushWG   sync.WaitGroup
	maintWG   sync.WaitGroup
}

// RunLRPP trains with the multi-trainer LRPP engine (§3.3 of the paper):
// cfg.NumTrainers independent trainer processes, each owning the cache
// partition of the ids hashing to it (core.OwnerOf) and reaching the
// embedding tier over its own store trs[p] (one server or an S-way
// ShardedStore — the engine cannot tell). Rows a non-owner reads
// are pushed to it as per-iteration replicas over the mesh; gradient
// updates to remote-owned rows are queued and flushed by a background
// delayed-sync goroutine — batched per owner, contributions the next
// iteration depends on flushed first, the rest one iteration later — so no
// cross-trainer synchronization sits on the forward/backward critical
// path. Each iteration runs in two halves on two goroutines: stage (register,
// insert the prefetched rows, wait for earlier merges, push replicas) and
// compute (the model, staged by model.Staged, and the gradient routing).
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
// per-trainer windows compose into the global guarantee.
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
	// order.
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, P)
	oracle.Partitioner = cfg.Partitioner
	stats := make([]core.IterStats, 0, cfg.NumBatches)
	planChs := make([]chan *core.Plan, P)
	for p := range planChs {
		planChs[p] = make(chan *core.Plan, cfg.LookAhead)
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
			for p, pl := range d.Plans(P) {
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
func newLRPPEngine(cfg *Config, mesh transport.Mesh, coll lrppColl) *lrppEngine {
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
		epoch:  time.Now(),
	}
	if !cfg.SyncEager && cfg.LookAhead > 1 {
		eng.lag = 1
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
		part:     newPartition(eng.P),
		expiring: make(map[int]int),
		evbatch:  make(map[int][]core.Eviction),
		routed:   make(map[int]bool),
		repRows:  make(map[int]transport.ReplicaMsg),
		repFrom:  make(map[int]rankBits),
		arena:    transport.Rows(cfg.Spec.EmbDim),
		foldBuf:  make([]float32, cfg.Spec.EmbDim),
		idx:      make(map[uint64]int32),
		routedCh: make(chan struct{}, 1),
		// One window of routed iterations may queue for the flusher. The
		// only send (compute, step 8) holds no lock, so a full queue is
		// backpressure on the trainer loop and nothing else; the flusher
		// waits on nothing the loop holds, so the queue always drains.
		flushQ: make(chan *flushItem, cfg.LookAhead),
		// An item is away from its iteration's routing until its lazy half
		// ships lag passes later: lag+2 cover the steady state, a longer
		// flusher backlog allocates and the surplus is dropped.
		flushFree: make(chan *flushItem, eng.lag+2),
		// maybeEmitLocked sends under mu, so this send must never block,
		// and it cannot: a job is sent once per iteration that was admitted
		// (it holds a lookahead token) and not yet retired (maintenance
		// returns the token after retiring it), and at most ℒ tokens exist,
		// so the jobs in the buffer, parked or being written back, plus the
		// one being sent, number at most ℒ.
		maintCh: make(chan maintJob, cfg.LookAhead),
		tokens:  make(chan struct{}, cfg.LookAhead),
	}
	t.cond = sync.NewCond(&t.mu)
	t.params = m.Params()
	for _, p := range t.params {
		t.segs = append(t.segs, p.Grad)
	}
	for i := 0; i < cfg.LookAhead; i++ {
		t.tokens <- struct{}{}
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
func (t *lrppTrainer) run(planCh <-chan *core.Plan) {
	workCh := t.startDispatcher(planCh)
	t.startReceiver()
	t.startFlusher()
	t.startMaintenance()

	mark := time.Now()
	for w := range t.startStager(workCh) {
		mark = t.compute(w, t.clock.lap(StageHandoff, mark))
	}

	// Teardown: flush the delayed-sync backlog, wait for every merge and
	// eviction this partition owes (fed by the other trainers' final
	// flushes), retire the remaining iterations, then close the endpoint.
	close(t.flushQ)
	t.flushWG.Wait()
	t.mu.Lock()
	for t.part.pending > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
	close(t.maintCh)
	t.maintWG.Wait()
	t.ep.Close()
	t.recvWG.Wait()
}

// startDispatcher runs the per-trainer prefetch front end: it admits one
// iteration per lookahead token (the ℒ-deep consistency window over this
// partition) and fetches its owned misses concurrently with earlier
// iterations' compute, delivering rows through a future.
func (t *lrppTrainer) startDispatcher(planCh <-chan *core.Plan) <-chan *lrppWork {
	eng := t.eng
	workCh := make(chan *lrppWork, eng.L)
	go func() {
		defer close(workCh)
		for {
			mark := time.Now()
			pl, ok := <-planCh
			if !ok {
				return
			}
			mark = t.clock.lap(StageWaitPlan, mark)
			<-t.tokens
			t.clock.lap(StageWaitToken, mark)
			w := &lrppWork{plan: pl, rows: make(chan [][]float32, 1)}
			workCh <- w
			go func(pl *core.Plan, w *lrppWork) {
				var rows [][]float32
				if len(pl.Prefetch) > 0 {
					if eng.hooks != nil && eng.hooks.OnPrefetch != nil {
						eng.hooks.OnPrefetch(t.p, pl.Dec.Iter, pl.Prefetch)
					}
					if eng.activeTrain.Load() > 0 {
						eng.overlapPT.Add(1)
					}
					start := time.Now()
					rows = t.tr.Fetch(pl.Prefetch)
					t.clock.lap(StageBusyDispatch, start)
				}
				w.rows <- rows
			}(pl, w)
		}
	}()
	return workCh
}

// startStager runs stage for every admitted iteration, each as soon as the
// loop has routed the previous iteration's partials (routedCh), and hands
// the iteration to the loop before staging it, so compute's dense forward
// does not wait for the stage. The hand-off never blocks: by the time the
// permit arrives the loop has taken every earlier iteration.
func (t *lrppTrainer) startStager(workCh <-chan *lrppWork) <-chan *lrppWork {
	out := make(chan *lrppWork, 1)
	go func() {
		defer close(out)
		for w := range workCh {
			<-t.routedCh
			out <- w
			t.stage(w)
		}
	}()
	return out
}

// startReceiver drains the mesh endpoint: replica pushes feed the per-
// iteration replica box, sync flushes feed the gradient merges. Both are
// keyed by (id, iteration), so arbitrary mesh reordering is harmless.
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
				// The push transfers ownership of its id run, header and
				// rows (pooled at the sender in-process, decoded into the
				// same pools by the TCP codec): file it under its owner.
				// compute's step 6 releases it once the rows are consumed.
				t.mu.Lock()
				t.repRows[pl.Iter*t.eng.P+msg.From] = pl
				rb := t.repFrom[pl.Iter]
				rb.set(msg.From)
				t.repFrom[pl.Iter] = rb
				t.mu.Unlock()
				t.cond.Broadcast()
			case transport.SyncBatchMsg:
				// One coalesced frame, several iterations' flushes: deposits
				// are keyed by (id, iteration, sender), so table order is
				// irrelevant. As with replica pushes the flush transfers
				// ownership of its pooled runs and partials: the merges
				// adopt the partials, the emptied runs go back here.
				t.mu.Lock()
				for _, f := range pl.Flushes {
					for i, id := range f.IDs {
						s, ok := t.part.slotOf[id]
						if !ok {
							panic(fmt.Sprintf("train: trainer %d: contribution for unregistered id %d iter %d", t.p, id, f.Iter))
						}
						t.depositLocked(s, f.Iter, msg.From, f.Partials[i])
					}
				}
				t.arena.PutN(t.spent)
				t.spent = t.spent[:0]
				t.mu.Unlock()
				t.cond.Broadcast()
				for _, f := range pl.Flushes {
					transport.PutRowSlice(f.Partials)
					transport.PutIDs(f.IDs)
				}
			case transport.PlanMsg:
				// Worker mode only: the rank-0 process streams oracle plans.
				if t.planBox == nil {
					panic(fmt.Sprintf("train: trainer %d received a plan outside worker mode", t.p))
				}
				t.planBox.put(pl.Plan)
			case transport.FusedCollMsg:
				// Worker mode only: collective contributions and results.
				if t.mcoll == nil {
					panic(fmt.Sprintf("train: trainer %d received a collective message outside worker mode", t.p))
				}
				t.mcoll.deliverFused(pl)
			default:
				panic(fmt.Sprintf("train: trainer %d received unknown mesh payload %T", t.p, msg.Payload))
			}
			t.clock.lap(StageBusyReceiver, start)
		}
	}()
}

// startFlusher runs the delayed-sync sender: per iteration it flushes
// critical partials (rows the next iteration reads) immediately and
// holds the rest back lag iterations. Everything one flush pass owes one
// owner — typically iteration x's urgent partials plus iteration
// x−lag's deferred ones — is coalesced into a single SyncBatchMsg frame
// with a per-iteration id → partial table, instead of one frame per
// (iteration, criticality), so the trainer loop never blocks on
// cross-trainer traffic and the fabric sees one frame per owner per pass.
func (t *lrppTrainer) startFlusher() {
	eng := t.eng
	t.flushWG.Add(1)
	go func() {
		defer t.flushWG.Done()
		// pass accumulates one flush pass's per-owner iteration tables; the
		// urgent/delayed counters keep their historical granularity (one
		// per non-empty per-owner table) even though the frames coalesce.
		pass := make([][]transport.SyncMsg, eng.P)
		collect := func(runs []transport.SyncMsg, iter int, urgent bool) {
			for o := range runs {
				if len(runs[o].IDs) == 0 {
					continue
				}
				runs[o].Iter = iter
				pass[o] = append(pass[o], runs[o])
				runs[o] = transport.SyncMsg{}
				if urgent {
					eng.urgentFlushes.Add(1)
				} else {
					eng.delayedFlushes.Add(1)
				}
			}
		}
		flush := func() {
			for o, flushes := range pass {
				if len(flushes) == 0 {
					continue
				}
				b := syncBatchBytes(flushes, eng.dim)
				t.ep.Send(o, b, transport.SyncBatchMsg{Flushes: flushes})
				eng.countSend(classSync, b)
				pass[o] = nil
			}
		}
		var backlog []*flushItem
		for it := range t.flushQ {
			start := time.Now()
			collect(it.urgent, it.iter, true)
			backlog = append(backlog, it)
			for len(backlog) > 0 && backlog[0].iter <= it.iter-eng.lag {
				done := backlog[0]
				collect(done.lazy, done.iter, false)
				backlog = backlog[1:]
				// Both halves now belong to pass: hand the emptied item back.
				select {
				case t.flushFree <- done:
				default:
				}
			}
			flush()
			t.clock.lap(StageBusyFlusher, start)
		}
		for _, it := range backlog {
			collect(it.lazy, it.iter, false)
		}
		flush()
	}()
}

// startMaintenance runs the background write-back stage. Eviction batches
// may complete out of iteration order (a delayed contribution can finish a
// newer iteration's last merge first); retirement is re-sequenced so
// lookahead tokens release strictly in order — the ℒ-window bookkeeping
// stays exact.
//
// Write-backs coalesce: after a job arrives, every job already queued is
// taken without blocking, and every iteration that is then ready, in order,
// is written with ONE Store.Write over the concatenation of their id lists,
// so a tier slower than one iteration per write falls behind by whole
// batches instead of serializing one round trip per iteration. Only then
// does each of those iterations, in order, fire OnWriteBack with its own
// ids, recycle its eviction batch, and retire (OnRetire, Progress, token):
// visibility moves only at the batch boundary, as in Obladi's epochs. The
// ids of one batch are distinct — an id evicted at x is next prefetched
// for some y ≥ x+ℒ, and that prefetch waits for x's retirement, so it
// cannot be evicted again before x's batch is written — and at most one
// write is in flight.
func (t *lrppTrainer) startMaintenance() {
	eng := t.eng
	t.maintWG.Add(1)
	go func() {
		defer t.maintWG.Done()
		parked := make(map[int][]core.Eviction) // iter → its batch, until retired
		next := 0
		// Write-back scratch reused across batches: callees treat the id and
		// row slices as call-scoped (transports copy or encode, the hook only
		// iterates), so one set serves the whole run. ends[i] is where
		// iteration next+i's ids end in ids.
		var (
			ids  []uint64
			rows [][]float32
			ends []int
		)
		for job := range t.maintCh {
			began := time.Now()
			parked[job.iter] = job.evictions
		drain:
			for {
				select {
				case j, ok := <-t.maintCh:
					if !ok {
						break drain
					}
					parked[j.iter] = j.evictions
				default:
					break drain
				}
			}
			ids, rows, ends = ids[:0], rows[:0], ends[:0]
			for it := next; ; it++ {
				evs, ok := parked[it]
				if !ok {
					break
				}
				for _, ev := range evs {
					ids = append(ids, ev.ID)
					rows = append(rows, ev.Row)
				}
				ends = append(ends, len(ids))
			}
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
				if evs := parked[next]; len(evs) > 0 {
					if eng.hooks != nil && eng.hooks.OnWriteBack != nil {
						eng.hooks.OnWriteBack(t.p, next, ids[start:end:end])
					}
					t.mu.Lock()
					clear(evs)
					t.evFree = append(t.evFree, evs[:0])
					t.mu.Unlock()
				}
				start = end
				if eng.hooks != nil && eng.hooks.OnRetire != nil {
					eng.hooks.OnRetire(t.p, next)
				}
				if eng.prog != nil {
					eng.prog.noteRetire(t.p, next)
				}
				t.tokens <- struct{}{}
				delete(parked, next)
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
func (t *lrppTrainer) stage(w *lrppWork) {
	eng := t.eng
	pt := &t.part
	pl := w.plan
	x := pl.Dec.Iter
	start := time.Now()

	// 1. Register this iteration's merge obligations and eviction counts
	// before pushing any replica: a peer computes a partial for one of our
	// rows only from the iteration-x replica of it (step 4), so registration
	// always precedes the first deposit. Registration resolves every owned
	// row to its slot once; the steps below and compute index the slab
	// through slots.
	t.mu.Lock()
	slots := t.slotBuf[x%2][:0]
	for k, id := range pl.Owned {
		s := pt.slot(id)
		pt.expect(s, x, rankBits(pl.OwnedUsers[k]))
		slots = append(slots, s)
	}
	t.slotBuf[x%2] = slots
	w.slots = slots
	t.expiring[x] = len(pl.Expiring)
	t.mu.Unlock()

	// 2. Insert the prefetched owned rows and refresh TTLs. The partition
	// adopts the row buffers by reference (they return to the arena at
	// write-back); the fetch's header slice is dead after the loop, so
	// recycle it.
	mark := time.Now()
	rows := <-w.rows
	waitRows := time.Since(mark)
	t.mu.Lock()
	j := 0
	for i, id := range pl.Prefetch {
		for pl.Owned[j] != id { // Prefetch ⊆ Owned, both ascending
			j++
		}
		if eng.hooks != nil && eng.hooks.OnInsert != nil {
			eng.hooks.OnInsert(t.p, x, id)
		}
		pt.insert(slots[j], rows[i])
	}
	if rows != nil {
		transport.PutRowSlice(rows)
	}
	for k, s := range slots {
		pt.recs[s].ttl = pl.OwnedTTL[k]
	}

	// 3. Wait until every owned row used this iteration has absorbed all
	// merges from earlier iterations (the per-row sync horizon).
	mark = time.Now()
	for {
		ready := true
		for _, s := range slots {
			if pt.recs[s].merges[0].iter < x {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		t.cond.Wait()
	}
	waitMerges := time.Since(mark)

	// 4. Snapshot and push replicas to the non-owners reading our rows.
	outs := make([]transport.ReplicaMsg, len(pl.ReplicaOut))
	for q, ids := range pl.ReplicaOut {
		if len(ids) == 0 {
			continue
		}
		// Snapshot into pooled buffers: the id run, header and rows transfer
		// to the receiver with the push (in-process meshes deliver by
		// reference), which recycles them after consuming the iteration —
		// so nothing here, including the counters below, may touch the
		// message after Send.
		snap := &outs[q]
		*snap = transport.ReplicaMsg{Iter: x, IDs: transport.GetIDs(len(ids)), Rows: transport.GetRowSlice(len(ids))}
		copy(snap.IDs, ids)
		t.arena.GetN(snap.Rows)
		j := 0
		for i, id := range ids {
			for pl.Owned[j] != id { // ReplicaOut[q] ⊆ Owned, both ascending
				j++
			}
			src := pt.recs[slots[j]].row
			if src == nil {
				panic(fmt.Sprintf("train: trainer %d iter %d: replica id %d missing from partition", t.p, x, id))
			}
			copy(snap.Rows[i], src)
		}
	}
	// The snapshots are taken: compute may gather and deposit from here on.
	w.staged = true
	t.mu.Unlock()
	t.cond.Broadcast()
	for q, ids := range pl.ReplicaOut {
		if len(ids) == 0 {
			continue
		}
		b := replicaMsgBytes(len(ids), eng.dim)
		t.ep.Send(q, b, outs[q])
		eng.countSend(classReplica, b)
		eng.replicaRows.Add(int64(len(ids)))
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
func (t *lrppTrainer) compute(w *lrppWork, mark time.Time) time.Time {
	eng := t.eng
	pt := &t.part
	pl := w.plan
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
	// with the replica run that owner pushed (exactly these ids, ascending).
	// idx maps each id to its table position; the table aliases partition
	// and replica rows only until fillEmb copies them.
	t.mu.Lock()
	for !w.staged {
		t.cond.Wait()
	}
	mark = t.clock.lap(StageWaitStage, mark)
	for rankBits(pl.ReplicaFrom)&^t.repFrom[x] != 0 {
		t.cond.Wait()
	}
	mark = t.clock.lap(StageWaitReplicas, mark)
	slots := w.slots
	var reps [core.MaxTrainers]transport.ReplicaMsg
	var cur [core.MaxTrainers]int
	for o := range eng.P {
		if rankBits(pl.ReplicaFrom).has(o) {
			key := x*eng.P + o
			reps[o] = t.repRows[key]
			delete(t.repRows, key)
		}
	}
	delete(t.repFrom, x)
	tab, idx := t.tab[:0], t.idx
	clear(idx)
	for k, s := range slots {
		if !pl.OwnedUsers[k].Has(t.p) {
			continue
		}
		row := pt.recs[s].row
		if row == nil {
			panic(fmt.Sprintf("train: trainer %d iter %d: owned id %d missing from partition (oracle consistency violated)", t.p, x, pl.Owned[k]))
		}
		idx[pl.Owned[k]] = int32(len(tab))
		tab = append(tab, row)
	}
	t.mu.Unlock()
	nOwn := len(tab)
	for k, id := range pl.Remote {
		o := pl.RemoteOwner[k]
		rep, i := &reps[o], cur[o]
		if i == len(rep.IDs) || rep.IDs[i] != id || len(rep.Rows[i]) != eng.dim {
			panic(fmt.Sprintf("train: trainer %d iter %d: no dim-%d replica of id %d from trainer %d (oracle consistency violated)", t.p, x, eng.dim, id, o))
		}
		cur[o] = i + 1
		idx[id] = int32(len(tab))
		tab = append(tab, rep.Rows[i])
	}
	t.tab = tab
	if used := ls.index(d.Batch, spec.NumCategorical, idx, len(tab)); used != len(tab) {
		panic(fmt.Sprintf("train: trainer %d iter %d: plan gathers %d rows, the examples read %d (oracle consistency violated)", t.p, x, len(tab), used))
	}
	ls.fillEmb(tab, spec.NumCategorical, eng.dim)
	// fillEmb copied every row, so the replica pushes this trainer adopted
	// are dead: return each to the pools its sender drew it from.
	for o, rep := range reps[:eng.P] {
		if cur[o] != len(rep.IDs) {
			panic(fmt.Sprintf("train: trainer %d iter %d: trainer %d pushed %d replica rows, the plan reads %d (oracle consistency violated)", t.p, x, o, len(rep.IDs), cur[o]))
		}
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
	// remote-owned ones join their owner's urgent or lazy run for the
	// delayed-sync flusher. The partials own their memory — models reuse the
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
		fi = &flushItem{urgent: make([]transport.SyncMsg, eng.P), lazy: make([]transport.SyncMsg, eng.P)}
	}
	fi.iter = x
	for k, id := range pl.Remote {
		run := &fi.lazy[pl.RemoteOwner[k]]
		if pl.RemoteNext[k] {
			run = &fi.urgent[pl.RemoteOwner[k]]
		}
		if run.IDs == nil {
			run.IDs, run.Partials = transport.GetIDs(0), transport.GetRowSlice(0)
		}
		run.IDs = append(run.IDs, id)
		run.Partials = append(run.Partials, parts[nOwn+k])
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
	t.routed[x] = true
	t.maybeEmitLocked(x)
	t.mu.Unlock()
	t.cond.Broadcast()
	t.flushQ <- fi
	t.routedCh <- struct{}{}
	mark = t.clock.lap(StageRoute, mark)

	// 9. Dense backward, then ONE fused collective round: every
	// dense-parameter gradient segment plus the loss term crosses the
	// trainer group together (a single frame per hop on mesh fabrics,
	// instead of one per parameter), folded in rank order from zero — the
	// identical call sequence and summation on every trainer.
	if !idle {
		t.model.BackwardDense()
	}
	mark = t.clock.lap(StageBackwardDense, mark)
	eng.collArrive[x%2][t.p].Store(int64(mark.Sub(eng.epoch)))
	eng.coll.FusedAllReduce(t.p, t.segs, t.lossVec[:])
	now := time.Now()
	coll := now.Sub(mark)
	wait := t.collWait(x, mark, coll)
	t.clock.add(StageCollWait, wait)
	t.clock.add(StageCollFold, coll-wait)
	mark = now
	t.opt.Step(t.params)
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

// collWait returns how much of collective round x, which this trainer
// entered at arr and left coll later, it spent waiting for the other ranks.
// In-process that is the gap to the last rank's arrival, which no rank can
// overwrite before this one reads it: round x+2 needs this rank's arrival
// at x+1. Across processes the mesh reducer times its own wait.
func (t *lrppTrainer) collWait(x int, arr time.Time, coll time.Duration) time.Duration {
	if t.mcoll != nil {
		return min(t.mcoll.waited, coll)
	}
	eng := t.eng
	var last int64
	for p := range eng.P {
		last = max(last, eng.collArrive[x%2][p].Load())
	}
	return min(max(time.Duration(last)-arr.Sub(eng.epoch), 0), coll)
}

// depositLocked takes ownership of trainer from's partial for (slot s,
// iter) and applies every merge that became ready. Caller holds t.mu.
func (t *lrppTrainer) depositLocked(s int32, iter, from int, g []float32) {
	im := t.part.merge(s, iter)
	if im == nil {
		panic(fmt.Sprintf("train: trainer %d: contribution for unregistered iter %d of id %d", t.p, iter, t.part.recs[s].id))
	}
	if !im.expect.clearBit(from) {
		panic(fmt.Sprintf("train: trainer %d: unexpected or repeated partial from trainer %d for id %d iter %d", t.p, from, t.part.recs[s].id, iter))
	}
	im.parts[from] = g
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
	for im := pt.ready(s); im != nil; im = pt.ready(s) {
		applied = true
		iter := im.iter
		rec := &pt.recs[s]
		if rec.row == nil {
			panic(fmt.Sprintf("train: trainer %d iter %d: sync for id %d landed after eviction", t.p, iter, rec.id))
		}
		// Fold into the trainer's persistent buffer (mu is held).
		g := t.foldBuf
		t.spent = foldParts(g, im.parts, t.spent)
		t.rowOpt.UpdateRow(rec.id, rec.row, g)
		rec.dirty = true
		if eng.hooks != nil && eng.hooks.OnSyncApply != nil {
			eng.hooks.OnSyncApply(t.p, iter, rec.id)
		}
		pt.pop(s)
		if rec.ttl != iter {
			continue
		}
		if len(rec.merges) > 0 {
			panic(fmt.Sprintf("train: trainer %d iter %d: sync for id %d landed after eviction", t.p, rec.merges[0].iter, rec.id))
		}
		if eng.hooks != nil && eng.hooks.OnEvict != nil {
			eng.hooks.OnEvict(t.p, iter, rec.id)
		}
		evs := t.evbatch[iter]
		if evs == nil {
			if n := len(t.evFree); n > 0 {
				evs = t.evFree[n-1][:0]
				t.evFree[n-1] = nil
				t.evFree = t.evFree[:n-1]
			}
		}
		t.evbatch[iter] = append(evs, pt.evict(s))
		t.evictedRows++
		t.expiring[iter]--
		t.maybeEmitLocked(iter)
		break
	}
	if applied {
		// The merge head moved (or the row left the partition): wake the
		// trainer loop's merge wait and the teardown drain.
		t.cond.Broadcast()
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

// maybeEmitLocked hands iteration iter's eviction batch to maintenance
// once the trainer loop has routed its partials and the iteration's last
// merge has evicted. Routing, not the end of the iteration, is the gate:
// retirement is about embedding write-backs, and after routing the loop
// touches no embedding state of iter again — the dense backward, collective
// and optimizer step that may still be running change dense parameters
// only. The ℒ-window law (prefetch x+ℒ waits for x's write-backs) and the
// fuzz auditor's four invariants are about those embedding events, so they
// hold unchanged (FuzzLRPPDifferential is the proof). Caller holds t.mu;
// the send never blocks (see maintCh's capacity in newLRPPTrainer).
// Emission deletes routed[iter], so an iteration emits once.
func (t *lrppTrainer) maybeEmitLocked(iter int) {
	if !t.routed[iter] || t.expiring[iter] != 0 {
		return
	}
	evs := t.evbatch[iter]
	delete(t.evbatch, iter)
	delete(t.expiring, iter)
	delete(t.routed, iter)
	slices.SortFunc(evs, func(a, b core.Eviction) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	t.maintCh <- maintJob{iter: iter, evictions: evs}
}
