package train

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// runWorkers runs one LRPP worker per rank as goroutines sharing mesh, each
// with its own transport, and returns the per-rank results.
func runWorkers(t *testing.T, cfg Config, trs []transport.Store, mesh transport.Mesh) []*Result {
	t.Helper()
	return runWorkersPrep(t, cfg, trs, mesh, nil)
}

// runWorkersPrep is runWorkers with runLRPPWorker's prep seam.
func runWorkersPrep(t *testing.T, cfg Config, trs []transport.Store, mesh transport.Mesh, prep func(*lrppTrainer)) []*Result {
	t.Helper()
	P := cfg.NumTrainers
	results := make([]*Result, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = runLRPPWorker(cfg, p, trs[p], mesh, prep)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", p, err)
		}
	}
	return results
}

// TestLRPPWorkersMatchBaseline is the multi-process engine's differential
// property, run over every mesh fabric: P RunLRPPWorker instances — each
// with its own engine state, its own collective reducer, and (for ranks >
// 0) plans arriving over the mesh — leave the embedding servers
// bit-identical to the no-cache baseline and report its exact losses. The
// sim fabric genuinely reorders plan/collective/replica messages in
// flight; the tcp fabric runs everything through real sockets and the
// little-endian codec.
func TestLRPPWorkersMatchBaseline(t *testing.T) {
	for _, meshName := range []string{"inproc", "sim", "tcp"} {
		for _, P := range []int{1, 3} {
			if meshName != "sim" && P == 1 {
				continue // P=1 exercises no fabric; one run of it suffices
			}
			t.Run(fmt.Sprintf("%s_P%d", meshName, P), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.NumTrainers = P
				cfg.NumBatches = 16

				srvBase := newServer(cfg.Spec, 3)
				base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}

				srv := newServer(cfg.Spec, 3)
				var mesh transport.Mesh
				switch meshName {
				case "inproc":
					mesh = transport.NewInprocMesh(P)
				case "sim":
					mesh = transport.NewSimMesh(P, 200*time.Microsecond, 20e6)
				case "tcp":
					lb, err := transport.NewLoopbackTCPMesh(P)
					if err != nil {
						t.Fatal(err)
					}
					defer lb.Shutdown()
					mesh = lb
				}
				results := runWorkers(t, cfg, newStores(srv, P), mesh)

				if d := embed.Diff(srvBase, srv); len(d) != 0 {
					t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
				}
				// Every worker records the identical all-reduced losses.
				for p, res := range results {
					if res.FirstLoss != base.FirstLoss || res.LastLoss != base.LastLoss {
						t.Fatalf("worker %d losses diverged: %v/%v vs baseline %v/%v",
							p, res.FirstLoss, res.LastLoss, base.FirstLoss, base.LastLoss)
					}
				}
				if P > 1 && results[1].ReplicaRows == 0 && results[0].ReplicaRows == 0 {
					t.Fatal("no replicas pushed despite multiple trainers")
				}
			})
		}
	}
}

// TestLRPPWorkersOverTCPEndToEnd is the full distributed configuration in
// one test: an embedding-server process loop served over a real listener,
// every worker reaching it through its own TCPLink, and the trainer mesh
// over
// loopback TCP — then the state is certified against a baseline run by the
// remote fingerprint.
func TestLRPPWorkersOverTCPEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 3
	cfg.NumBatches = 20

	srv := newServer(cfg.Spec, 3)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- transport.ServeEmbed(lis, srv) }()

	mesh, err := transport.NewLoopbackTCPMesh(cfg.NumTrainers)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Shutdown()
	trs := make([]transport.Store, cfg.NumTrainers)
	links := make([]*transport.TCPLink, cfg.NumTrainers)
	for i := range trs {
		link, err := transport.DialTCPLink(lis.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = link
		trs[i] = link
	}
	results := runWorkers(t, cfg, trs, mesh)

	srvBase := newServer(cfg.Spec, 3)
	base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
	if err != nil {
		t.Fatal(err)
	}
	if fp := links[0].Fingerprint(); fp != srvBase.Fingerprint() {
		t.Fatalf("remote state fingerprint %x != baseline %x", fp, srvBase.Fingerprint())
	}
	for p, res := range results {
		if res.LastLoss != base.LastLoss {
			t.Fatalf("worker %d last loss %v != baseline %v", p, res.LastLoss, base.LastLoss)
		}
		if res.Transport.RowsFetched == 0 {
			t.Fatalf("worker %d fetched nothing over its link", p)
		}
	}
	links[0].Shutdown()
	for _, l := range links {
		l.Close()
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeEmbed: %v", err)
	}
}

// TestLRPPWorkerValidation covers the worker entry point's config errors.
func TestLRPPWorkerValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumTrainers = 2
	srv := newServer(cfg.Spec, 1)
	tr := transport.NewInProcess(srv)

	if _, err := RunLRPPWorker(cfg, 0, tr, nil); err == nil {
		t.Fatal("nil mesh accepted")
	}
	if _, err := RunLRPPWorker(cfg, 2, tr, transport.NewInprocMesh(2)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := RunLRPPWorker(cfg, 0, tr, transport.NewInprocMesh(3)); err == nil {
		t.Fatal("mesh size mismatch accepted")
	}
	bad := cfg
	bad.LookAhead = 0
	if _, err := RunLRPPWorker(bad, 0, tr, transport.NewInprocMesh(2)); err == nil {
		t.Fatal("lookahead 0 accepted")
	}
}

// countingDist counts the categorical draws of the generators using it.
type countingDist struct {
	data.Distribution
	draws atomic.Int64
}

func (c *countingDist) Sample(rng *tensor.RNG, tableSize int64) int64 {
	c.draws.Add(1)
	return c.Distribution.Sample(rng, tableSize)
}

// gatedStore holds every Write until release closes.
type gatedStore struct {
	transport.Store
	release chan struct{}
}

func (g gatedStore) Write(ids []uint64, rows [][]float32) {
	<-g.release
	g.Store.Write(ids, rows)
}

// TestPlanLeadBounded pins how far the oracle runs ahead of trainers that
// cannot retire. Every write-back blocks, and iteration 0 evicts rows on
// every trainer (uniform draws over tables far larger than a window), so no
// token returns. Depth credits still do, since routing waits for no
// write-back, so the tokens stop admission: each dispatcher admits
// iterations 0..ℒ−1 and holds plan ℒ, however deep its admission depth,
// its channel queues lead = min(ℒ, planLead) more, and the oracle blocks
// queueing decision ℒ+lead+1. Each Next tops its window up to ℒ batches
// from the decided one, so the generator has then made 2ℒ+lead+1 batches
// (41 at ℒ=16; a lead of ℒ makes 3ℒ+1 = 49). The single-process engine and
// worker mode over an in-process mesh (rank 0 ships the peers their plans
// before queueing its own) stop at the same count. Released, both runs end
// bit-identical to the baseline.
func TestPlanLeadBounded(t *testing.T) {
	for _, mode := range []string{"lrpp", "worker"} {
		t.Run(mode, func(t *testing.T) {
			cnt := &countingDist{Distribution: data.Uniform{}}
			cfg := tinyConfig()
			cfg.Spec = tinySpec()
			cfg.Spec.TableSizes = []int64{1 << 16, 1 << 16, 1 << 16, 1 << 16}
			cfg.Spec.Dist = cnt
			cfg.LookAhead = 16
			cfg.NumBatches = 64
			perBatch := int64(cfg.BatchSize * cfg.Spec.NumCategorical)
			want := int64(2*cfg.LookAhead + planQueue(cfg.LookAhead) + 1)

			srv := newServer(cfg.Spec, 3)
			release := make(chan struct{})
			trs := newStores(srv, cfg.NumTrainers)
			for p := range trs {
				trs[p] = gatedStore{trs[p], release}
			}
			done := make(chan error, 1)
			go func() {
				var err error
				if mode == "lrpp" {
					_, err = RunLRPP(cfg, trs, nil)
				} else {
					mesh := transport.NewInprocMesh(cfg.NumTrainers)
					errs := make(chan error, cfg.NumTrainers)
					for p := range trs {
						go func(p int) {
							_, err := RunLRPPWorker(cfg, p, trs[p], mesh)
							errs <- err
						}(p)
					}
					for range trs {
						if e := <-errs; e != nil {
							err = e
						}
					}
				}
				done <- err
			}()

			// Wait for the oracle to stop: the draw count unchanged over
			// several polls.
			var batches int64
			for stable, deadline := 0, time.Now().Add(20*time.Second); stable < 10; {
				if time.Now().After(deadline) {
					t.Fatalf("oracle still pulling batches after 20s (%d)", batches)
				}
				time.Sleep(30 * time.Millisecond)
				n := cnt.draws.Load() / perBatch
				if n == batches {
					stable++
				} else {
					batches, stable = n, 0
				}
			}
			t.Logf("%s: oracle stopped at %d batches with writes held, bound 2ℒ+lead+1 = %d", mode, batches, want)
			if batches > want {
				t.Errorf("oracle pulled %d batches with no iteration retired, want at most 2ℒ+lead+1 = %d", batches, want)
			}

			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			srvBase := newServer(cfg.Spec, 3)
			if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
				t.Fatal(err)
			}
			if d := embed.Diff(srvBase, srv); len(d) != 0 {
				t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
			}
		})
	}
}

// TestPlanRingUnderSkew runs workers whose rank 1 retires late (every
// write-back 3 ms slow), so rank 0's oracle runs as far ahead of rank 1's
// dispatcher as the collectives allow: the case planRing's bounds are
// derived for. Measured at ℒ = 4, plans arrived up to ℒ+lead+1 iterations
// ahead of the drain, inside the ring's ℒ+lead+3 slots; a plan outside them
// panics. Over loopback TCP, where rank 1 decodes every plan into a buffer
// of its ring, it never makes more than D+lead+3 buffers, D rank 0's
// admission depth: at ℒ = 16 that is fewer than the ring's slots. Every run
// must end bit-identical to the baseline.
func TestPlanRingUnderSkew(t *testing.T) {
	for _, fabric := range []string{"inproc", "tcp"} {
		for _, L := range []int{4, 16} {
			t.Run(fmt.Sprintf("%s_L%d", fabric, L), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.LookAhead = L
				cfg.NumBatches = 60
				srvBase := newServer(cfg.Spec, 3)
				if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
					t.Fatal(err)
				}
				srv := newServer(cfg.Spec, 3)
				trs := newStores(srv, cfg.NumTrainers)
				trs[1] = skewStore{trs[1], 3 * time.Millisecond}
				var mesh transport.Mesh = transport.NewInprocMesh(cfg.NumTrainers)
				if fabric == "tcp" {
					lb, err := transport.NewLoopbackTCPMesh(cfg.NumTrainers)
					if err != nil {
						t.Fatal(err)
					}
					defer lb.Shutdown()
					mesh = lb
				}
				var ring *planRing
				res := runWorkersPrep(t, cfg, trs, mesh, func(tr *lrppTrainer) {
					if tr.p == 1 {
						ring = tr.plans
					}
				})
				if d := embed.Diff(srvBase, srv); len(d) != 0 {
					t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
				}
				// Every plan was routed and handed back, so every buffer the
				// ring made is on its free list.
				made := len(ring.free)
				bound := res[0].Depths[0] + planQueue(L) + 3
				t.Logf("rank 1 made %d plan buffers for %d slots; rank 0 depth %d, bound D+lead+3 = %d", made, len(ring.ring), res[0].Depths[0], bound)
				if made > bound {
					t.Errorf("rank 1 made %d plan buffers, want at most D+lead+3 = %d", made, bound)
				}
				if fabric == "tcp" && made == 0 {
					t.Error("rank 1 decoded no plan into its ring over TCP")
				}
			})
		}
	}
}
