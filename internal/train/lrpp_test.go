package train

import (
	"fmt"
	"slices"
	"sync"
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
// differential property: for every trainer count and partitioner, the
// multi-trainer LRPP engine with delayed sync leaves the embedding
// servers bit-identical to the no-cache fetch-per-batch baseline, and
// reports bit-identical losses. Under -race this exercises every engine
// goroutine: per-trainer prefetch, replica pushes, the delayed-sync
// flusher, merge receivers, and background write-back. The run is twenty
// windows long because the flusher and maintenance queues hold one window
// (ℒ) each: a run that fits in a few windows would not notice a bound that
// is too tight.
func TestLRPPMatchesBaselineAcrossTrainersAndPartitioners(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, partName := range []string{"hash", "roundrobin", "comm-aware"} {
			t.Run(fmt.Sprintf("P%d_%s", p, partName), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.NumTrainers = p
				cfg.NumBatches = 20 * cfg.LookAhead
				switch partName {
				case "hash":
					cfg.Partitioner = core.Contiguous{}
				case "roundrobin":
					cfg.Partitioner = core.RoundRobin{}
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

// TestPlacementDeterministicSharedConfig runs the baseline and LRPP at
// once over one Config whose nil Partitioner is the comm-aware default:
// the partitioner value holds no scratch, each run places with its own
// (the oracle's, the baseline loop's), so under -race the two runs share
// nothing and still agree bit for bit.
func TestPlacementDeterministicSharedConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 4 * cfg.LookAhead
	srvBase, srvLRPP := newServer(cfg.Spec, 3), newServer(cfg.Spec, 3)
	var wg sync.WaitGroup
	var errBase, errLRPP error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errBase = RunBaseline(cfg, transport.NewInProcess(srvBase))
	}()
	go func() {
		defer wg.Done()
		_, errLRPP = RunLRPP(cfg, newStores(srvLRPP, cfg.NumTrainers), nil)
	}()
	wg.Wait()
	if errBase != nil || errLRPP != nil {
		t.Fatalf("baseline: %v, lrpp: %v", errBase, errLRPP)
	}
	if d := embed.Diff(srvBase, srvLRPP); len(d) != 0 {
		t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
	}
}

// TestLRPPLookaheadInvariance: ℒ changes the schedule, never the math.
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

// gateStore holds the first write-back of one trainer until at least
// queued more iterations have emitted for maintenance (or orderWait
// passes), and counts the write calls. Only the trainer's maintenance
// goroutine writes. Emission fires no hook, so the gate polls the ring's
// emitted records, which include the batch being written until it retires.
type gateStore struct {
	transport.Store
	t      *lrppTrainer
	queued int
	writes int
}

// emitted counts t's records that have emitted and not yet retired.
func emitted(t *lrppTrainer) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.ring {
		if t.ring[i].emitted {
			n++
		}
	}
	return n
}

func (g *gateStore) Write(ids []uint64, rows [][]float32) {
	if g.writes == 0 {
		want := emitted(g.t) + g.queued
		for deadline := time.Now().Add(orderWait); emitted(g.t) < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	g.writes++
	g.Store.Write(ids, rows)
}

// TestWriteBackCoalescesInOrder holds trainer 0's first write-back until
// several later iterations have queued for maintenance, then checks that
// they were written together and still surfaced one by one: one
// OnWriteBack per evicting iteration in increasing order carrying exactly
// that plan's expiring ids, retirement 0…N−1 on every trainer, and a tier
// bit-identical to the baseline.
func TestWriteBackCoalescesInOrder(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumBatches = 24
	n := cfg.NumBatches
	expiring := make([][]uint64, n) // trainer 0's plan, per iteration
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, n), cfg.LookAhead, cfg.NumTrainers)
	evicting := 0
	for d, ok := oracle.Next(); ok; d, ok = oracle.Next() {
		expiring[d.Iter] = d.Plans(cfg.NumTrainers)[0].Expiring
		if len(expiring[d.Iter]) > 0 {
			evicting++
		}
	}

	var (
		mu        sync.Mutex
		wbIters   []int
		wbIDs     [][]uint64
		retired   = make([]int, cfg.NumTrainers)
		outOfTurn []string
	)
	cfg.Hooks = &LRPPHooks{
		OnWriteBack: func(owner, iter int, ids []uint64) {
			if owner != 0 {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			wbIters = append(wbIters, iter)
			wbIDs = append(wbIDs, slices.Clone(ids)) // ids is call-scoped
		},
		OnRetire: func(owner, iter int) {
			mu.Lock()
			defer mu.Unlock()
			if iter != retired[owner] {
				outOfTurn = append(outOfTurn, fmt.Sprintf("trainer %d retired %d, expected %d", owner, iter, retired[owner]))
			}
			retired[owner]++
		},
	}

	srvBase := newServer(cfg.Spec, 2)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg.Spec, 2)
	gate := &gateStore{queued: 2}
	if _, err := runLRPP(cfg, newStores(srv, cfg.NumTrainers), nil, func(tr *lrppTrainer) {
		if tr.p == 0 {
			gate.Store, gate.t = tr.tr, tr
			tr.tr = gate
		}
	}); err != nil {
		t.Fatal(err)
	}

	if gate.writes == 0 || gate.writes >= evicting {
		t.Fatalf("trainer 0 made %d write calls for %d evicting iterations: nothing coalesced", gate.writes, evicting)
	}
	for _, s := range outOfTurn {
		t.Error(s)
	}
	for p, r := range retired {
		if r != n {
			t.Errorf("trainer %d retired %d of %d iterations", p, r, n)
		}
	}
	if len(wbIters) != evicting {
		t.Fatalf("%d write-back events for %d evicting iterations", len(wbIters), evicting)
	}
	for i, x := range wbIters {
		if i > 0 && x <= wbIters[i-1] {
			t.Fatalf("write-back of iteration %d after iteration %d", x, wbIters[i-1])
		}
		if !slices.Equal(wbIDs[i], expiring[x]) {
			t.Fatalf("iteration %d wrote back %v, its plan expires %v", x, wbIDs[i], expiring[x])
		}
	}
	if d := embed.Diff(srvBase, srv); len(d) != 0 {
		t.Fatalf("coalesced write-back diverged from baseline at %d ids (first: %v)", len(d), d[0])
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
