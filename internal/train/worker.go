package train

import (
	"fmt"
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
//     arrive reordered (the mesh contract permits it), so a bounded ring
//     (planRing, ring.go) feeds the trainer in iteration order.
//   - dense-gradient and loss collectives: meshColl (meshcoll.go) runs the
//     chunk-owned round, one FusedCollMsg per ordered pair of ranks per
//     phase, folding each chunk on its owner in rank order from zero, the
//     exact summation order of collective.Group, so worker runs stay
//     bit-identical to single-process and baseline runs.
//   - everything LRPP already exchanged (replicas, delayed-sync flushes)
//     rides the same mesh unchanged; the plans' needed-next flags fix the
//     order their partials follow.

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
	return runLRPPWorker(cfg, rank, tr, mesh, nil)
}

// runLRPPWorker is RunLRPPWorker with a seam for the package's tests: prep,
// when non-nil, sees the trainer once it is wired, before it starts.
func runLRPPWorker(cfg Config, rank int, tr transport.Store, mesh transport.Mesh, prep func(*lrppTrainer)) (*Result, error) {
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
	t, err := newLRPPTrainer(eng, rank, tr, ep)
	if err != nil {
		return nil, err
	}
	t.mcoll = newMeshColl(rank, P, ep, eng, t.values, len(t.lossVec))
	eng.coll = t.mcoll

	var src planSource
	var stats []core.IterStats
	if rank == 0 {
		// Host the oracle: walk the stream, keep our plan, ship the rest.
		// The local plan channel's capacity throttles the walk to the
		// plan lead ahead of rank 0's dispatcher; peers can never outrun
		// it by more than the collectives allow, so plans are always
		// available where needed (planRing derives the peers' bound). Each
		// decision goes back to the oracle once its plans are cut; a plan
		// comes back once its trainer has routed it, or, over a fabric that
		// encodes it, once encoded (transport.ReleasePayload).
		planCh := make(planChan, planQueue(cfg.LookAhead))
		src = planCh
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
				oracle.Recycle(d)
				for p := 1; p < P; p++ {
					eng.send(ep, p, classPlan, transport.PlanMsg{Plan: plans[p]})
				}
				planCh <- plans[0]
			}
		}()
	} else {
		t.plans = newPlanRing(rank, cfg.LookAhead, cfg.NumBatches)
		src = t.plans
		// A fabric that decodes plans (TCP) decodes each into its ring slot.
		if dec, ok := ep.(interface{ DecodePlansInto(transport.PlanSlots) }); ok {
			dec.DecodePlansInto(t.plans.buf)
			defer dec.DecodePlansInto(nil)
		}
	}

	if prep != nil {
		prep(t)
	}
	start, cpu0 := time.Now(), processCPU()
	t.run(src)
	mesh.Quiesce()
	return eng.collectResult([]*lrppTrainer{t}, stats, start, cpu0)
}
