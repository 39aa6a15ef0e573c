// Package train is Bagpipe's execution engine: it wires the Oracle Cacher,
// the partitioned trainer-side caches, the sharded embedding servers
// (behind a transport), the recommendation models, and the collective layer
// into one concurrent training pipeline, plus a baseline fetch-per-batch
// trainer it is differentially tested against. Three drivers share one
// deterministic compute core:
//
//   - RunBaseline — no cache, no lookahead, no overlap (§2.3 of the
//     paper); the differential ground truth.
//   - RunLRPP — P trainers with partitioned LRPP caches, replica pushes
//     and delayed gradient sync over a trainer mesh (§3.3), all in one
//     process. At P = 1 it is the single-cache pipeline of §4: oracle,
//     prefetch, TTL cache, background write-back.
//   - RunLRPPWorker — exactly one LRPP trainer per process: plans,
//     collectives, replicas, and sync flushes all cross a transport.Mesh
//     (TCP in production, in-process/simulated in tests); rank 0 hosts the
//     oracle (worker.go).
//
// The oracle walks the batch stream ℒ iterations ahead of training and its
// decisions drive everything: what each trainer prefetches, how long its
// cache partition keeps each row (TTL), and what maintenance writes back
// after eviction. A token scheme bounds each trainer's pipeline so a
// prefetch for iteration x is issued only after the write-backs of
// iteration x−ℒ have completed — exactly the window for which the oracle's
// consistency argument (§3.2) guarantees the servers cannot serve a stale
// row. The window is enforced per partition; ownership disjointness
// composes the per-trainer windows into the global guarantee.
//
// Both engines drive the same deterministic rank machinery: data-parallel
// model replicas whose dense gradients and loss are combined in one
// chunk-owned collective round per iteration (collective.Group in-process;
// meshColl across processes — meshcoll.go). Rank r owns the r-th
// contiguous 1/P of the dense parameters: a reduce-scatter folds each
// chunk on its owner in rank order from zero, the owner's optimizer steps
// only that chunk, and an all-gather returns the updated parameters, 2(P−1)
// frames per rank per round on a mesh. Per-row embedding gradients are
// reduced by the same rule: each rank sums
// its own examples' gradients for a row in sub-batch order, and the
// per-rank partials are folded in rank order from zero, with one optimizer
// update per (row, iteration) (rankPartials / foldRankGrads). Over the
// same Config, every engine × fabric combination therefore produces
// bit-identical embedding-server state — the end-to-end property the
// differential tests and the fuzz harness (lrpp_fuzz_test.go) enforce
// under -race.
package train

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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

// Config describes one training run.
type Config struct {
	Spec *data.Spec
	Seed uint64

	Model     string // "dlrm", "wd", "dc", "deepfm"
	Optimizer string // "sgd", "momentum", "adagrad", "adam"
	LR        float32

	BatchSize  int
	NumBatches int

	// LookAhead is ℒ, the oracle window in batches (LRPP engines; the
	// baseline has no lookahead).
	LookAhead int
	// NumTrainers is the data-parallel rank count.
	NumTrainers int
	// Partitioner assigns examples to ranks; nil means
	// core.DefaultPartitioner.
	Partitioner core.Partitioner

	// Collective names the mesh collective of multi-process worker runs.
	// The one strategy is CollFused (also what "" means): the chunk-owned
	// round, in which each rank sends each peer one frame of the peer's
	// chunk of its gradients and loss terms, steps its own chunk, and
	// sends each peer one frame of its stepped chunk — 2(P−1) frames per
	// rank per round. Single-process engines always use the in-process
	// collective.Group, which runs the same round over shared buffers.
	Collective string
	// Hooks, when non-nil, receives LRPP engine events for invariant
	// auditing (differential + fuzz harness). Nil in production runs.
	Hooks *LRPPHooks
	// Progress, when non-nil, is updated live with the write-back epoch and
	// completed-example count so an observer in the same process (the
	// serving front end) can bound staleness and measure interference
	// without touching engine internals. LRPP engine only.
	Progress *Progress
}

func (c *Config) validate() error {
	if c.Spec == nil {
		return fmt.Errorf("train: nil spec")
	}
	if c.BatchSize <= 0 || c.NumBatches <= 0 {
		return fmt.Errorf("train: need positive batch size and count, got %d/%d", c.BatchSize, c.NumBatches)
	}
	if c.NumTrainers <= 0 || c.NumTrainers > core.MaxTrainers {
		return fmt.Errorf("train: trainer count must be in [1, %d], got %d", core.MaxTrainers, c.NumTrainers)
	}
	if c.Collective != "" && c.Collective != CollFused {
		return fmt.Errorf("train: unknown collective strategy %q (only %q)", c.Collective, CollFused)
	}
	return nil
}

func (c *Config) partitioner() core.Partitioner {
	if c.Partitioner != nil {
		return c.Partitioner
	}
	return core.DefaultPartitioner
}

// newOptimizers builds the dense optimizer for one rank and the shared
// row-wise optimizer for embedding updates. Every optim type implements
// both interfaces, so name resolution is shared.
func newOptimizer(name string, lr float32) (interface {
	optim.Optimizer
	optim.RowOptimizer
}, error) {
	switch name {
	case "", "sgd":
		return optim.NewSGD(lr), nil
	case "momentum":
		return optim.NewMomentum(lr, 0.9), nil
	case "adagrad":
		return optim.NewAdagrad(lr), nil
	case "adam":
		return optim.NewAdam(lr), nil
	}
	return nil, fmt.Errorf("train: unknown optimizer %q", name)
}

// Result summarizes a finished run.
type Result struct {
	Engine   string
	Iters    int
	Examples int64
	Elapsed  time.Duration

	FirstLoss, LastLoss float32
	AvgLoss             float64

	// Oracle-derived cache statistics (zero for the baseline engine).
	UniqueIDs  int64 // unique embedding IDs across iterations
	CachedHits int64 // served from the trainer cache
	Prefetched int64 // fetched from the embedding servers
	Evicted    int64 // rows written back on eviction
	PeakCache  int   // peak cached rows (LRPP: sum of per-partition peaks, an upper bound on the simultaneous total)

	// Overlap counters: how many times one stage was observed running
	// while the trainer computed (evidence the stages actually pipeline).
	OverlapPrefetchTrain int64
	OverlapMaintTrain    int64

	// LRPP engine only: cross-trainer traffic over the mesh.
	ReplicaRows    int64 // owner→user row snapshots for remote reads
	SyncEntries    int64 // per-(rank, row, iteration) gradient partials routed to owners
	UrgentFlushes  int64 // sync batches flushed on the critical path (needed next iter)
	DelayedFlushes int64 // sync batches flushed off the critical path
	Mesh           transport.MeshStats
	// MeshClasses splits the mesh traffic this process *sent* by protocol
	// phase — the counters that prove (rather than assert) the
	// collective's frame count. Collective and plan frames only cross
	// the mesh in worker mode; replica and sync frames cross it in every
	// multi-trainer LRPP run.
	MeshClasses MeshTraffic

	// Stages is the LRPP engine's stage clock (stages.go): where each
	// trainer's time went, and the process CPU over the run. Empty for the
	// baseline engine.
	Stages Stages
	// Depths is each hosted trainer's admission depth D at the end of the
	// run, in Stages.Trainers order: how many iterations it admitted ahead
	// of routing (at most ℒ, see admitFloor). Empty for the baseline engine.
	Depths []int

	Transport transport.Stats
	// StoreServers splits the embedding-tier traffic by backend server:
	// fetch/write frames (per-server sub-batch RPCs) and payload bytes,
	// one entry per server in tier order, summed across this process's
	// trainers. The per-server counterpart of MeshClasses: it is what
	// proves — from counters, not assertions — that a -servers S run
	// actually fanned its traffic out S ways. Transport is the field-wise
	// sum of these entries.
	StoreServers []transport.Stats

	// Tier is the embedding-tier failure-handling snapshot (replication
	// factor, failovers served by a non-primary replica, per-server RPC
	// retries, dead servers), summed across this process's trainers. Nil
	// when the store does not replicate (single-server tiers and plain
	// sharded stores report no health state worth printing).
	Tier *transport.TierHealth
}

// tierHealther is the optional Store face that exposes failover counters;
// *transport.ShardedStore implements it.
type tierHealther interface {
	TierHealth() transport.TierHealth
}

// addTierHealth folds tr's failure-handling counters into res.Tier, if tr
// exposes any and they are worth reporting (the tier replicates or has
// already lost a server).
func addTierHealth(res *Result, tr transport.Store) {
	th, ok := tr.(tierHealther)
	if !ok {
		return
	}
	h := th.TierHealth()
	if h.Replicate <= 1 && len(h.Dead) == 0 && h.Revived == 0 && h.RoutingEpoch == 0 {
		return
	}
	if res.Tier == nil {
		res.Tier = &transport.TierHealth{Servers: h.Servers, Replicate: h.Replicate}
	}
	res.Tier.Failovers += h.Failovers
	res.Tier.Retries += h.Retries
	res.Tier.Revived += h.Revived
	res.Tier.ResyncRows += h.ResyncRows
	// Reshard progress is tier-global, not additive across trainers: every
	// client converges on the same epoch, and the stream counters live in
	// whichever client drove the migration. Report the max of each.
	if h.RoutingEpoch > res.Tier.RoutingEpoch {
		res.Tier.RoutingEpoch = h.RoutingEpoch
	}
	if h.ReshardParts > res.Tier.ReshardParts {
		res.Tier.ReshardParts = h.ReshardParts
	}
	if h.ReshardRows > res.Tier.ReshardRows {
		res.Tier.ReshardRows = h.ReshardRows
	}
	if h.ReshardBytes > res.Tier.ReshardBytes {
		res.Tier.ReshardBytes = h.ReshardBytes
	}
	// The final tier width under the installed routing, not the launch
	// width: a resharded run reports where it ended up.
	if h.Servers > 0 {
		res.Tier.Servers = h.Servers
	}
	for _, d := range h.Dead {
		seen := false
		for _, have := range res.Tier.Dead {
			if have == d {
				seen = true
				break
			}
		}
		if !seen {
			res.Tier.Dead = append(res.Tier.Dead, d)
		}
	}
	sort.Ints(res.Tier.Dead)
}

// MeshTraffic is per-phase mesh accounting: frames and declared bytes,
// split by what the frame carried.
type MeshTraffic struct {
	ReplicaMsgs, ReplicaBytes int64 // owner→reader row snapshots
	SyncMsgs, SyncBytes       int64 // delayed-sync flush frames
	CollMsgs, CollBytes       int64 // collective contributions/results
	PlanMsgs, PlanBytes       int64 // oracle plans (rank 0 → peers)
}

// HitRate returns the fraction of unique-ID accesses served by the cache.
func (r *Result) HitRate() float64 {
	if r.UniqueIDs == 0 {
		return 0
	}
	return float64(r.CachedHits) / float64(r.UniqueIDs)
}

// Throughput returns examples per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Examples) / r.Elapsed.Seconds()
}

// ranks is the baseline's deterministic data-parallel compute core:
// NumTrainers model replicas, each stepped by its own dense
// optimizer, synchronized with a rank-ordered all-reduce so every replica
// stays bit-identical regardless of goroutine scheduling.
type ranks struct {
	n        int
	dim      int
	numCat   int
	numDense int
	models   []model.Model
	opts     []optim.Optimizer
	group    *collective.Group
	in       []chan rankWork
	out      []chan rankResult
	wg       sync.WaitGroup
}

type rankWork struct {
	batch  *data.Batch
	assign []int
	idx    *core.IDTable // id → position in tab (read-only for ranks)
	tab    [][]float32   // the batch's current rows (read-only for ranks)
}

type rankResult struct {
	loss float64        // partial loss, already scaled by 1/B
	dEmb *tensor.Matrix // gradient w.r.t. this rank's gathered rows
	mine []int          // example indices (batch order) this rank computed
	pos  []int32        // row-table position per (example, field) of mine
}

// newRanks builds the replicas. All replicas share the model seed, so they
// start bit-identical; rank-ordered all-reduce keeps them that way.
func newRanks(cfg *Config) (*ranks, error) {
	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	r := &ranks{
		n:        cfg.NumTrainers,
		dim:      cfg.Spec.EmbDim,
		numCat:   cfg.Spec.NumCategorical,
		numDense: cfg.Spec.NumNumeric,
		group:    collective.NewGroup(cfg.NumTrainers),
	}
	for i := 0; i < r.n; i++ {
		m, err := model.New(cfg.Model, mcfg)
		if err != nil {
			return nil, err
		}
		opt, err := newOptimizer(cfg.Optimizer, cfg.LR)
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, m)
		r.opts = append(r.opts, opt)
		r.in = append(r.in, make(chan rankWork))
		r.out = append(r.out, make(chan rankResult))
	}
	for i := 0; i < r.n; i++ {
		r.wg.Add(1)
		go r.run(i)
	}
	return r, nil
}

// run is one rank goroutine: it extracts its partition of each batch,
// runs forward/backward, all-reduces the dense gradients across ranks in a
// fixed order, and steps its replica.
func (r *ranks) run(rank int) {
	defer r.wg.Done()
	m := r.models[rank]
	opt := r.opts[rank]
	ls := new(localSlice)
	for w := range r.in[rank] {
		ls.extract(w.batch, w.assign, rank, r.numDense)
		ls.index(w.batch, r.numCat, w.idx, len(w.tab))
		ls.fillEmb(w.tab, r.numCat, r.dim)
		loss, dEmb := computeLocal(m, ls)
		// Every rank joins every collective (idle ranks contribute zeros)
		// and steps the summed gradient, keeping all replicas bit-identical.
		for _, p := range m.Params() {
			r.group.AllReduceSum(rank, p.Grad)
		}
		opt.Step(m.Params())
		r.out[rank] <- rankResult{loss: loss, dEmb: dEmb, mine: ls.mine, pos: ls.pos}
	}
}

// localSlice is one rank's partition of a batch, extracted in batch order.
// It is the unit of compute shared by the baseline's ranks and the LRPP
// trainers, so both engines run bit-identical math. Each rank owns
// one and refills it every iteration; the buffers are reused.
type localSlice struct {
	mine    []int   // example indices (batch order) this rank computes
	pos     []int32 // row-table position of field c of mine[k] at k·numCat+c
	hit     []bool  // index's scratch: which positions the slice uses
	dense   *tensor.Matrix
	emb     *tensor.Matrix
	cats    [][]uint64
	labels  []float32
	dlogits []float32
	full    int // full batch size (loss/gradient scaling)
}

// reshape returns a rows×cols matrix over m's storage when it is large
// enough, a fresh one otherwise. Contents are undefined.
func reshape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return tensor.NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// copyPad copies src into dst and zeroes whatever src did not cover, so a
// reused buffer reads like a freshly zeroed one.
func copyPad(dst, src []float32) {
	clear(dst[copy(dst, src):])
}

// extract selects rank's examples of b and copies everything about them but
// their embedding rows. The dense width is a parameter rather than read off
// b.Examples[0]: a batch that arrived in a worker's PlanMsg is sparse — only
// this rank's assigned examples are populated — and example 0 may be an
// empty slot.
func (ls *localSlice) extract(b *data.Batch, assign []int, rank, numDense int) {
	ls.mine = ls.mine[:0]
	for i, t := range assign {
		if t == rank {
			ls.mine = append(ls.mine, i)
		}
	}
	ls.full = len(b.Examples)
	ls.dense = reshape(ls.dense, len(ls.mine), numDense)
	ls.cats, ls.labels = ls.cats[:0], ls.labels[:0]
	for k, i := range ls.mine {
		ex := b.Examples[i]
		copyPad(ls.dense.Row(k), ex.Dense)
		ls.cats = append(ls.cats, ex.Cat)
		ls.labels = append(ls.labels, ex.Label)
	}
}

// index resolves every (example, field) of the slice to its row's position
// in the iteration's row table through idx (id → position), the one
// id-keyed lookup per (example, field) an iteration makes, and returns how
// many of the table's n positions the slice uses. A field whose id idx
// lacks is an oracle bug and panics.
func (ls *localSlice) index(b *data.Batch, numCat int, idx *core.IDTable, n int) int {
	ls.pos = ls.pos[:0]
	ls.hit = slices.Grow(ls.hit[:0], n)[:n]
	clear(ls.hit)
	used := 0
	for _, i := range ls.mine {
		cat := b.Examples[i].Cat
		if len(cat) != numCat {
			panic(fmt.Sprintf("train: example %d has %d categorical fields, want %d", i, len(cat), numCat))
		}
		for _, id := range cat {
			p, ok := idx.Get(id)
			if !ok {
				panic(fmt.Sprintf("train: id %d of example %d has no row in the iteration's table (oracle consistency violated)", id, i))
			}
			if !ls.hit[p] {
				ls.hit[p] = true
				used++
			}
			ls.pos = append(ls.pos, p)
		}
	}
	return used
}

// fillEmb gathers the extracted examples' embedding rows, feature order,
// from the row table index resolved them into.
func (ls *localSlice) fillEmb(tab [][]float32, numCat, dim int) {
	ls.emb = reshape(ls.emb, len(ls.mine), numCat*dim)
	for j, p := range ls.pos {
		copy(ls.emb.Data[j*dim:(j+1)*dim], tab[p])
	}
}

// lossGrad turns the slice's logits into its partial loss and fills
// ls.dlogits. Both are scaled by the FULL batch size, so the sum of per-rank
// dense gradients equals the full-batch mean gradient the baseline math
// defines.
func (ls *localSlice) lossGrad(logits []float32) float64 {
	invB := float32(1) / float32(ls.full)
	ls.dlogits = ls.dlogits[:0]
	var loss float64
	for j, z := range logits {
		loss += float64(stableBCE(z, ls.labels[j])) * float64(invB)
		ls.dlogits = append(ls.dlogits, (nn.SigmoidScalar(z)-ls.labels[j])*invB)
	}
	return loss
}

// computeLocal runs forward/backward for one rank's slice, accumulating
// dense gradients into the model and returning the partial loss plus the
// gradient w.r.t. the gathered embedding rows (nil for an idle rank).
func computeLocal(m model.Model, ls *localSlice) (float64, *tensor.Matrix) {
	nn.ZeroGrads(m.Params())
	if len(ls.mine) == 0 { // a partitioner may leave a rank idle for a batch
		return 0, nil
	}
	loss := ls.lossGrad(m.Forward(ls.dense, ls.emb, ls.cats))
	return loss, m.Backward(ls.dlogits)
}

// stableBCE is the numerically stable per-example binary cross-entropy
// term max(z,0) − z·y + log1p(exp(−|z|)) (unscaled).
func stableBCE(z, y float32) float32 {
	t := z
	if t < 0 {
		t = 0
	}
	abs := z
	if abs < 0 {
		abs = -abs
	}
	return t - z*y + float32(math.Log1p(math.Exp(float64(-abs))))
}

// step runs one synchronized iteration across all ranks over the batch's
// row table tab (idx maps each id to its position) and returns the
// full-batch loss plus the embedding gradient of every table row in the
// canonical order (foldRankGrads), so the result is independent of rank
// scheduling.
func (r *ranks) step(b *data.Batch, assign []int, idx *core.IDTable, tab [][]float32) (float32, [][]float32) {
	for i := 0; i < r.n; i++ {
		r.in[i] <- rankWork{batch: b, assign: assign, idx: idx, tab: tab}
	}
	results := make([]rankResult, r.n)
	var loss float64
	for i := 0; i < r.n; i++ {
		results[i] = <-r.out[i]
		loss += results[i].loss
	}
	return float32(loss), foldRankGrads(results, len(tab), r.dim)
}

// rankPartials accumulates one rank's embedding-gradient partials by
// row-table position: parts[p] becomes the sum — from zero — of the
// gradient slices of every (example, field) pos maps to p, walking the
// rank's sub-batch (ascending batch index) and each example's fields in
// order. dEmb holds one row of numCat·dim gradients per example, so field j
// of the walk is dEmb's j-th dim-wide slice. parts' contents are undefined
// on entry (arena rows). This walk is the first half of the canonical
// embedding-gradient order every engine shares; folding the ranks'
// partials in rank order from zero is the second.
func rankPartials(parts [][]float32, pos []int32, dEmb *tensor.Matrix, dim int) {
	for _, g := range parts {
		clear(g)
	}
	for j, p := range pos {
		collective.AddF32(parts[p], dEmb.Data[j*dim:(j+1)*dim])
	}
}

// foldRankGrads is the reference embedding-gradient reduction over a row
// table of n positions: per-rank partials in sub-batch order
// (rankPartials), folded in rank order from zero — the same rule as dense
// gradients, and the order the LRPP owners reproduce from the partials
// their peers flush. A rank that reads no example of a row adds a zero
// partial, which leaves the sum's bits alone: a partial summed from +0 is
// never −0, so neither is any fold of them.
func foldRankGrads(results []rankResult, n, dim int) [][]float32 {
	grads, part := make([][]float32, n), make([][]float32, n)
	for i := range grads {
		grads[i], part[i] = make([]float32, dim), make([]float32, dim)
	}
	for _, res := range results {
		rankPartials(part, res.pos, res.dEmb, dim)
		for i, g := range grads {
			collective.AddF32(g, part[i])
		}
	}
	return grads
}

// close shuts the rank goroutines down.
func (r *ranks) close() {
	for i := 0; i < r.n; i++ {
		close(r.in[i])
	}
	r.wg.Wait()
}
