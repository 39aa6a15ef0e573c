package train

import (
	"fmt"
	"sync"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/transport"
)

// This file is the multi-process LRPP mode: RunLRPPWorker runs exactly one
// trainer of a P-trainer run in the calling process, connected to its peers
// over any transport.Mesh (in production a TCPMesh, in tests also the
// in-process and simulated fabrics) and to the embedding tier over any
// Store (TCPLinks against remote embedding-server processes, sharded
// across S of them by ShardedStore when the tier is multi-server).
//
// Three things that are free in the single-process engine must cross the
// mesh here, each as a codec wire type:
//
//   - oracle plans (transport.PlanMsg): the rank-0 process hosts the Oracle
//     Cacher and streams every peer its per-iteration core.Plan. Plans may
//     arrive reordered (the mesh contract permits it), so a resequencer
//     (planSeq) feeds the trainer in iteration order.
//   - dense-gradient and loss collectives: meshColl (meshcoll.go) reduces
//     them by the configured strategy — rooted per-parameter CollMsgs,
//     fused single-frame FusedCollMsgs through rank 0, or a ring of fused
//     frames — every strategy folding in rank order from zero, the exact
//     summation order of collective.Group, so worker runs stay
//     bit-identical to single-process and baseline runs.
//   - everything LRPP already exchanged (replicas, delayed-sync flushes)
//     rides the same mesh unchanged.

// planSeq re-sequences oracle plans arriving over the mesh: the fabric may
// reorder them, the trainer consumes them in iteration order.
type planSeq struct {
	mu    sync.Mutex
	cond  *sync.Cond
	plans map[int]*core.Plan
}

func newPlanSeq() *planSeq {
	b := &planSeq{plans: make(map[int]*core.Plan)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// put deposits one arrived plan (called from the mesh receiver goroutine).
func (b *planSeq) put(pl *core.Plan) {
	b.mu.Lock()
	b.plans[pl.Dec.Iter] = pl
	b.cond.Broadcast()
	b.mu.Unlock()
}

// stream emits plans for iterations [0, n) in order to out, then closes it.
func (b *planSeq) stream(n int, out chan<- *core.Plan) {
	defer close(out)
	for iter := 0; iter < n; iter++ {
		b.mu.Lock()
		for b.plans[iter] == nil {
			b.cond.Wait()
		}
		pl := b.plans[iter]
		delete(b.plans, iter)
		b.mu.Unlock()
		out <- pl
	}
}

// planMsgBytes models the wire size of one plan: the Decision's batch
// payload (dense features, categorical ids, label per example) plus the
// per-trainer plan — the same role syncBatchBytes/replicaMsgBytes play for
// the data-path messages. The model prices the plan as id-keyed tables (16
// bytes per owned TTL and per remote id, 12 + 4 per user for each owned
// id's user list, 12 + 8 per id for each non-empty replica list) and counts
// the decision's needed-next ids, whatever the codec's layout.
func planMsgBytes(pl *core.Plan) int64 {
	b := int64(16)
	b += 8 * int64(len(pl.Prefetch))
	b += 16 * int64(len(pl.Owned))
	b += 8 * int64(len(pl.Expiring))
	for _, us := range pl.OwnedUsers {
		b += 12 + 4*int64(us.Count())
	}
	for _, ids := range pl.ReplicaOut {
		if len(ids) > 0 {
			b += 12 + 8*int64(len(ids))
		}
	}
	b += 16 * int64(len(pl.Remote))
	b += 4 + 4*int64(pl.ReplicaFrom.Count())
	d := pl.Dec
	needed := 0
	for _, n := range d.NeededNext {
		if n {
			needed++
		}
	}
	b += 8 + 4*int64(len(d.Assign)) + 8*int64(needed)
	// Only the destination's assigned examples travel.
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != pl.Trainer {
			continue
		}
		b += 8 + 4*int64(len(ex.Dense)) + 8*int64(len(ex.Cat)) + 4
	}
	return b
}

// RunLRPPWorker runs trainer `rank` of a cfg.NumTrainers-trainer LRPP run
// in this process, reaching the embedding tier through tr (in production a
// TCPLink for a one-server tier, or a ShardedStore of TCPLinks for an
// S-server one). The peers run the same Config (workloads are
// deterministic functions of it, so no configuration crosses the wire) in
// their own processes — or goroutines, in tests — sharing the mesh fabric;
// rank 0 additionally hosts the Oracle Cacher and streams everyone their
// plans. State equivalence is unchanged from RunLRPP: over the same Config,
// P worker processes leave the embedding tier bit-identical to the
// single-process engines and the no-cache baseline.
//
// The caller owns tr and mesh: quiesce/shutdown them after the result
// returns (a TCPMesh still carries peers' teardown traffic when this
// trainer finishes first).
func RunLRPPWorker(cfg Config, rank int, tr transport.Store, mesh transport.Mesh) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LookAhead < 1 {
		return nil, fmt.Errorf("train: LRPP engine needs LookAhead >= 1, got %d", cfg.LookAhead)
	}
	P := cfg.NumTrainers
	if rank < 0 || rank >= P {
		return nil, fmt.Errorf("train: worker rank %d out of [0,%d)", rank, P)
	}
	if mesh == nil {
		return nil, fmt.Errorf("train: worker mode needs a mesh (use RunLRPP for the single-process engine)")
	}
	if mesh.Size() != P {
		return nil, fmt.Errorf("train: mesh has %d endpoints for %d trainers", mesh.Size(), P)
	}

	eng := newLRPPEngine(&cfg, mesh, nil)
	eng.worker = true
	ep := mesh.Endpoint(rank)
	mcoll := newMeshColl(rank, P, ep, cfg.collective(), eng)
	eng.coll = mcoll
	t, err := newLRPPTrainer(eng, rank, tr, ep)
	if err != nil {
		return nil, err
	}
	t.mcoll = mcoll

	planCh := make(chan *core.Plan, cfg.LookAhead)
	var stats []core.IterStats
	if rank == 0 {
		// Host the oracle: walk the stream, keep our plan, ship the rest.
		// The local plan channel's capacity throttles the walk to the
		// lookahead window ahead of rank 0's progress; peers can never
		// outrun it by more than the collectives allow, so plans are always
		// available where needed.
		gen := data.NewGenerator(cfg.Spec, cfg.Seed)
		oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, P)
		oracle.Partitioner = cfg.Partitioner
		go func() {
			defer close(planCh)
			for {
				d, ok := oracle.Next()
				if !ok {
					return
				}
				stats = append(stats, d.Stats(oracle.CacheOccupancy()))
				plans := d.Plans(P)
				for p := 1; p < P; p++ {
					pb := planMsgBytes(plans[p])
					ep.Send(p, pb, transport.PlanMsg{Plan: plans[p]})
					eng.countSend(classPlan, pb)
				}
				planCh <- plans[0]
			}
		}()
	} else {
		t.planBox = newPlanSeq()
		go t.planBox.stream(cfg.NumBatches, planCh)
	}

	start := time.Now()
	t.run(planCh)
	mesh.Quiesce()
	return eng.collectResult([]*lrppTrainer{t}, stats, start)
}
