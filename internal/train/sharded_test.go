package train

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// The sharded-tier differential matrix: every engine, trained against an
// S-server tier through the ShardedStore scatter/gather client, must leave
// the *merged* tier state bit-identical to the no-cache baseline on a
// one-server reference — the tier-width counterpart of the fabric and
// collective conformance matrices. This is the in-test form of
// `bagpipe -trainers P -servers S -net … -verify`.

// TestLRPPShardedTierMatchesBaseline sweeps trainer count × tier width for
// the LRPP engine over in-process stores, and checks the per-server
// traffic counters prove the fan-out (every server of the tier served
// fetches and writes).
func TestLRPPShardedTierMatchesBaseline(t *testing.T) {
	for _, P := range []int{1, 2, 4} {
		for _, S := range []int{2, 4} {
			t.Run(fmt.Sprintf("P%d_S%d", P, S), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.NumTrainers = P

				srvBase := newServer(cfg.Spec, 3)
				base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}

				tier := newTier(cfg.Spec, S, 3)
				res, err := RunLRPP(cfg, newShardedStores(tier, P), nil)
				if err != nil {
					t.Fatalf("lrpp over %d servers: %v", S, err)
				}

				merged, err := embed.MergeTier(tier)
				if err != nil {
					t.Fatalf("merge tier: %v", err)
				}
				if d := embed.Diff(srvBase, merged); len(d) != 0 {
					t.Fatalf("merged tier diverged from baseline at %d ids (first: %v)", len(d), d[0])
				}
				if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
					t.Fatalf("losses diverged: baseline %v/%v sharded %v/%v",
						base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
				}
				if len(res.StoreServers) != S {
					t.Fatalf("StoreServers has %d entries for %d servers", len(res.StoreServers), S)
				}
				var sum transport.Stats
				for s, ss := range res.StoreServers {
					if ss.Fetches == 0 || ss.Writes == 0 {
						t.Fatalf("server %d saw fetches=%d writes=%d: the fan-out never reached it",
							s, ss.Fetches, ss.Writes)
					}
					sum.Add(ss)
				}
				if sum != res.Transport {
					t.Fatalf("per-server stats sum %+v != aggregate %+v", sum, res.Transport)
				}
			})
		}
	}
}

// TestEnginesShardedTierAcrossFabrics runs both engines (the baseline, and
// LRPP at two trainers) against a 2-server tier over the inproc and sim
// fabrics — the carrier-not-semantic-layer property at the engine level.
func TestEnginesShardedTierAcrossFabrics(t *testing.T) {
	const S = 2
	cfg := tinyConfig()
	cfg.NumBatches = 20

	ref := newServer(cfg.Spec, 3)
	if _, err := RunBaseline(cfg, transport.NewInProcess(ref)); err != nil {
		t.Fatal(err)
	}

	shardedStore := func(tier []*embed.Server, sim bool) transport.Store {
		children := make([]transport.Store, len(tier))
		for i, srv := range tier {
			if sim {
				children[i] = transport.NewSimNet(srv, 200*time.Microsecond, 0)
			} else {
				children[i] = transport.NewInProcess(srv)
			}
		}
		return transport.NewShardedStore(children)
	}
	for _, engine := range []string{"baseline", "lrpp"} {
		for _, fabric := range []string{"inproc", "sim"} {
			t.Run(engine+"_"+fabric, func(t *testing.T) {
				tier := newTier(cfg.Spec, S, 3)
				sim := fabric == "sim"
				var err error
				if engine == "baseline" {
					_, err = RunBaseline(cfg, shardedStore(tier, sim))
				} else {
					_, err = RunLRPP(cfg, []transport.Store{shardedStore(tier, sim), shardedStore(tier, sim)}, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				merged, err := embed.MergeTier(tier)
				if err != nil {
					t.Fatal(err)
				}
				if d := embed.Diff(ref, merged); len(d) != 0 {
					t.Fatalf("%s over %s sharded tier diverged at %v", engine, fabric, d)
				}
			})
		}
	}
}

// TestLRPPWorkersShardedTCPEndToEnd is the full multi-server distributed
// configuration: 2 embedding-server loops over real listeners, 3 worker
// engines each reaching the tier through a ShardedStore of TCPLinks and
// meshed over loopback TCP — then the tier is certified against a baseline
// two ways: the cheap combined fingerprint and the merged tier state.
func TestLRPPWorkersShardedTCPEndToEnd(t *testing.T) {
	const S = 2
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 20

	tier := newTier(cfg.Spec, S, 3)
	addrs := make([]string, S)
	serveDone := make([]chan error, S)
	for s, srv := range tier {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = lis.Addr().String()
		done := make(chan error, 1)
		serveDone[s] = done
		go func(srv *embed.Server) { done <- transport.ServeEmbed(lis, srv) }(srv)
	}

	mesh, err := transport.NewLoopbackTCPMesh(cfg.NumTrainers)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()
	var allLinks []*transport.TCPLink
	var linksMu sync.Mutex
	trs := make([]transport.Store, cfg.NumTrainers)
	for p := range trs {
		children := make([]transport.Store, S)
		for s := range children {
			link, err := transport.DialTCPLink(addrs[s], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			linksMu.Lock()
			allLinks = append(allLinks, link)
			linksMu.Unlock()
			children[s] = link
		}
		trs[p] = transport.NewShardedStore(children)
	}
	results := runWorkers(t, cfg, trs, mesh)

	srvBase := newServer(cfg.Spec, 3)
	base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
	if err != nil {
		t.Fatal(err)
	}
	// The cheap certificate: per-server fingerprints combine
	// order-independently to the S=1 reference's.
	if fp := trs[0].Fingerprint(); fp != srvBase.Fingerprint() {
		t.Fatalf("remote tier fingerprint %x != baseline %x", fp, srvBase.Fingerprint())
	}
	for p, res := range results {
		if res.LastLoss != base.LastLoss {
			t.Fatalf("worker %d last loss %v != baseline %v", p, res.LastLoss, base.LastLoss)
		}
		if len(res.StoreServers) != S {
			t.Fatalf("worker %d StoreServers has %d entries for %d servers", p, len(res.StoreServers), S)
		}
	}
	trs[0].Shutdown()
	for _, l := range allLinks {
		l.Close()
	}
	for s, done := range serveDone {
		if err := <-done; err != nil {
			t.Fatalf("server %d: %v", s, err)
		}
	}
	// And the strong certificate, offline: merge the tier and diff.
	merged, err := embed.MergeTier(tier)
	if err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, merged); len(d) != 0 {
		t.Fatalf("merged remote tier diverged from baseline at %v", d)
	}
}

// TestMergeTierValidation covers the tier-merge error paths: ownership
// violations and mismatched widths are corruption, not data.
func TestMergeTierValidation(t *testing.T) {
	if _, err := embed.MergeTier(nil); err == nil {
		t.Fatal("empty tier merged")
	}
	// A row materialized on the wrong server must be rejected.
	tier := newTier(tinySpec(), 2, 2)
	tier[0].Write([]uint64{3}, [][]float32{make([]float32, tinySpec().EmbDim)}) // id 3 belongs to server 1
	if _, err := embed.MergeTier(tier); err == nil {
		t.Fatal("sharding-map violation merged silently")
	}
}
