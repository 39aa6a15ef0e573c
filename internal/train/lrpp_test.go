package train

import (
	"fmt"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// newStores returns p independent stores onto one server, one per LRPP
// trainer process.
func newStores(srv *embed.Server, p int) []transport.Store {
	trs := make([]transport.Store, p)
	for i := range trs {
		trs[i] = transport.NewInProcess(srv)
	}
	return trs
}

// newShardedStores returns p independent S-way sharded stores onto the
// tier srvs, one per LRPP trainer process (each trainer gets its own
// per-server transports, so traffic counters stay per-trainer).
func newShardedStores(srvs []*embed.Server, p int) []transport.Store {
	trs := make([]transport.Store, p)
	for i := range trs {
		children := make([]transport.Store, len(srvs))
		for s, srv := range srvs {
			children[s] = transport.NewInProcess(srv)
		}
		trs[i] = transport.NewShardedStore(children)
	}
	return trs
}

// newTier returns an S-server tier with identical seeds (tier splitting is
// deterministic, so the merged state is comparable to a one-server run).
func newTier(spec *data.Spec, S, shards int) []*embed.Server {
	srvs := make([]*embed.Server, S)
	for i := range srvs {
		srvs[i] = newServer(spec, shards)
	}
	return srvs
}

// TestLRPPMatchesBaselineAcrossTrainersAndPartitioners is the PR's central
// differential property: for every trainer count and both partitioners,
// the multi-trainer LRPP engine with delayed sync leaves the embedding
// servers bit-identical to the no-cache fetch-per-batch baseline, and
// reports bit-identical losses. Under -race this exercises every engine
// goroutine: per-trainer prefetch, replica pushes, the delayed-sync
// flusher, merge receivers, and background write-back. The run is twenty
// windows long because the flusher and maintenance queues hold one window
// (ℒ) each: a run that fits in a few windows would not notice a bound that
// is too tight.
func TestLRPPMatchesBaselineAcrossTrainersAndPartitioners(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, partName := range []string{"hash", "comm-aware"} {
			t.Run(fmt.Sprintf("P%d_%s", p, partName), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.NumTrainers = p
				cfg.NumBatches = 20 * cfg.LookAhead
				if partName == "comm-aware" {
					cfg.Partitioner = &core.CommAware{Own: core.Ownership{}}
				}

				srvBase := newServer(cfg.Spec, 3)
				base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				srvLRPP := newServer(cfg.Spec, 3)
				res, err := RunLRPP(cfg, newStores(srvLRPP, p), nil)
				if err != nil {
					t.Fatalf("lrpp: %v", err)
				}

				if d := embed.Diff(srvBase, srvLRPP); len(d) != 0 {
					t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
				}
				if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
					t.Fatalf("losses diverged: baseline %v/%v lrpp %v/%v",
						base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
				}
				if res.CachedHits == 0 {
					t.Fatal("LRPP cache never hit")
				}
				if res.Evicted != res.Prefetched {
					t.Fatalf("evicted %d != prefetched %d (rows leaked across partitions)",
						res.Evicted, res.Prefetched)
				}
				if p > 1 && res.ReplicaRows == 0 {
					t.Fatal("no replicas pushed despite multiple trainers")
				}
				if p > 1 && res.Mesh.Msgs == 0 {
					t.Fatal("no mesh traffic despite multiple trainers")
				}
				if res.Mesh.Dropped != 0 {
					t.Fatalf("%d mesh messages dropped mid-run", res.Mesh.Dropped)
				}
			})
		}
	}
}

// TestLRPPEagerAndDelayedSyncAgree: the delayed-sync lag is a scheduling
// choice, not a math change — eager flushing must land in the same state.
func TestLRPPEagerAndDelayedSyncAgree(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 24

	delayed := newServer(cfg.Spec, 2)
	resDelayed, err := RunLRPP(cfg, newStores(delayed, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SyncEager = true
	eager := newServer(cfg.Spec, 2)
	resEager, err := RunLRPP(cfg, newStores(eager, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(delayed, eager); len(d) != 0 {
		t.Fatalf("eager and delayed sync diverged at %v", d)
	}
	if resDelayed.DelayedFlushes == 0 {
		t.Fatal("delayed mode never delayed a flush")
	}
	if resEager.LastLoss != resDelayed.LastLoss {
		t.Fatalf("losses diverged: %v vs %v", resEager.LastLoss, resDelayed.LastLoss)
	}
}

// TestLRPPLookaheadInvariance: ℒ changes the schedule (and the delayed-
// sync lag at ℒ=1), never the math.
func TestLRPPLookaheadInvariance(t *testing.T) {
	var ref *embed.Server
	for _, L := range []int{1, 3, 16} {
		cfg := tinyConfig()
		cfg.NumTrainers = 2
		cfg.NumBatches = 20
		cfg.LookAhead = L
		srv := newServer(cfg.Spec, 2)
		if _, err := RunLRPP(cfg, newStores(srv, 2), nil); err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		if ref == nil {
			ref = srv
			continue
		}
		if d := embed.Diff(ref, srv); len(d) != 0 {
			t.Fatalf("L=%d: state differs from L=1 at ids %v", L, d)
		}
	}
}

// TestLRPPOverSimulatedFabric runs the full engine with simulated-latency
// transports to the servers AND a simulated trainer-to-trainer mesh (whose
// links genuinely reorder messages), then checks state against a baseline
// on a plain transport — the network is a timing model only.
func TestLRPPOverSimulatedFabric(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 16
	cfg.LookAhead = 4

	srvBase := newServer(cfg.Spec, 2)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}

	srv := newServer(cfg.Spec, 2)
	trs := make([]transport.Store, cfg.NumTrainers)
	for i := range trs {
		trs[i] = transport.NewSimNet(srv, time.Millisecond, 0)
	}
	mesh := transport.NewSimMesh(cfg.NumTrainers, 500*time.Microsecond, 50e6)
	res, err := RunLRPP(cfg, trs, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, srv); len(d) != 0 {
		t.Fatalf("simulated-fabric run diverged from baseline at %v", d)
	}
	if res.Mesh.SimulatedDelay == 0 {
		t.Fatal("sim mesh recorded no delay")
	}
	if res.Transport.SimulatedDelay == 0 {
		t.Fatal("simnet transports recorded no delay")
	}
	if res.Mesh.Dropped != 0 {
		t.Fatalf("%d mesh messages dropped", res.Mesh.Dropped)
	}
}

// TestLRPPValidation covers the config errors specific to the LRPP entry
// point.
func TestLRPPValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 2
	srv := newServer(cfg.Spec, 1)

	bad := cfg
	bad.LookAhead = 0
	if _, err := RunLRPP(bad, newStores(srv, 2), nil); err == nil {
		t.Fatal("lookahead 0 accepted")
	}
	if _, err := RunLRPP(cfg, newStores(srv, 1), nil); err == nil {
		t.Fatal("transport/trainer count mismatch accepted")
	}
	if _, err := RunLRPP(cfg, newStores(srv, 2), transport.NewInprocMesh(3)); err == nil {
		t.Fatal("mesh size mismatch accepted")
	}
}
