//go:build !race

package train

import (
	"runtime"
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/transport"
)

// allocSpec is a uniform-key stream over tables small enough that the
// embedding server has materialized nearly every row within the warm-up,
// so the tier's growth does not scale with the run.
func allocSpec() *data.Spec {
	return &data.Spec{
		Name:           "alloc",
		NumExamples:    1 << 20,
		NumCategorical: 8,
		NumNumeric:     4,
		TableSizes:     []int64{256, 256, 256, 256, 256, 256, 256, 256},
		EmbDim:         8,
		Dist:           data.Uniform{},
	}
}

// engineMallocs returns the heap objects the whole process allocated while
// one engine run of iters iterations ran: the leg's stores, mesh, oracle,
// trainers and their goroutines, everything built inside it.
func engineMallocs(t *testing.T, leg string, iters int) uint64 {
	t.Helper()
	cfg := tinyConfig()
	cfg.Spec = allocSpec()
	cfg.BatchSize = 64
	cfg.LookAhead = 4
	cfg.NumBatches = iters
	srv := newServer(cfg.Spec, 2)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	switch leg {
	case "lrpp":
		if _, err := RunLRPP(cfg, newStores(srv, cfg.NumTrainers), nil); err != nil {
			t.Fatal(err)
		}
	case "worker-inproc":
		runWorkers(t, cfg, newStores(srv, cfg.NumTrainers), transport.NewInprocMesh(cfg.NumTrainers))
	case "worker-tcp":
		lb, err := transport.NewLoopbackTCPMesh(cfg.NumTrainers)
		if err != nil {
			t.Fatal(err)
		}
		runWorkers(t, cfg, newStores(srv, cfg.NumTrainers), lb)
		lb.Shutdown()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEngineSteadyStateAllocs is the engine-level allocation gate: RunLRPP,
// and RunLRPPWorker over an in-process mesh and over loopback TCP, each
// trains N and 2N iterations in this process (P = 2, batch 64, ℒ = 4,
// uniform keys, one 2-shard embedding server behind in-process stores),
// and the N extra iterations may allocate at most a constant each. The
// oracle's decisions and plans, the plans rank 1 decodes into its ring and
// the generated batches all come back once their iteration has routed, so
// none of them is in the constant; what is, per iteration, counted from the
// allocation profile:
//
//   - the trainers, 10: per trainer the prefetch goroutine's closure and
//     frame (2), the replica push boxed into Send's any (1) and the urgent
//     and the deferred sync frame, each boxed into Send's any (2). The
//     flusher's flush lists come from a pool the receiver (or, over TCP,
//     the encoder) returns them to. The embedding server serves its shards
//     in turn and allocates nothing per call;
//   - worker mode adds the collective round, 4: per trainer its
//     reduce-scatter and its all-gather frame, each boxed into Send's any.
//     The reduce-scatter's chunk comes from the row arena and its loss
//     terms from the sender's two-round buffer; the all-gather's coding
//     comes from the frame-buffer pool, which the receiver (over TCP, the
//     encoder and then the receiver) returns it to;
//   - loopback TCP adds the decoder, 12: on each rank the replica push, the
//     two sync frames and the two collective frames boxed into Recv's any
//     (5), and the reduce-scatter frame's loss terms (1). The sync frames'
//     flush lists come from the flushers' pool.
//
// That is 10 in one process, 14 in worker mode and 26 over TCP; the bounds
// allow 6, 5 and 2 more for what varies from run to run (an arena briefly
// dry, a goroutine or queue reaching a new peak, runtime objects the
// profile does not attribute). The worker legs used to vary by several
// objects per iteration with host load (the TCP leg read 41.3–48.7 over
// eight runs) because each slot grew its own merge queue: how many merges
// a row held at once followed the pace of the stager, so a loaded host
// grew more of them later in the run. A slot's queue is now a fixed pair
// whose partials grow with the slot slab. The TCP leg also read 26.1–28.4
// from run to run, the high runs carrying about 280 more objects in the
// 2N-iteration run only: rank 1 decodes each plan into its ring slot's
// buffers, and a list that met a new largest plan was reallocated to fit
// it exactly, so a longer run met more such records (seen in the diffed
// allocation profiles of a high and a normal run, all under
// decodePayload). A list now regrows with a quarter more room. Before the
// server served its
// shards in turn (it ran a goroutine per shard, 16 objects per iteration)
// and the collective ran rooted at rank 0 with snapshot frames and a
// per-round table (8 in worker mode), the three legs read 26, 34 and 46;
// before plans and batches were recycled 61, 69 and 98, and before flush
// lists were pooled 30, 37 and 48.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const n = 128
	for _, c := range []struct {
		leg   string
		bound float64
	}{{"lrpp", 10 + 6}, {"worker-inproc", 14 + 5}, {"worker-tcp", 26 + 2}} {
		t.Run(c.leg, func(t *testing.T) {
			engineMallocs(t, c.leg, 16) // the process's one-time growth
			short, long := engineMallocs(t, c.leg, n), engineMallocs(t, c.leg, 2*n)
			per := (float64(long) - float64(short)) / n
			t.Logf("%s: %d objects for %d iterations, %d for %d: %.1f per iteration (bound %.0f)", c.leg, short, n, long, 2*n, per, c.bound)
			if per > c.bound {
				t.Errorf("%s allocates %.1f objects per iteration, want at most %.0f", c.leg, per, c.bound)
			}
		})
	}
}
