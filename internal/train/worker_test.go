package train

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// runWorkers runs one LRPP worker per rank as goroutines sharing mesh, each
// with its own transport, and returns the per-rank results.
func runWorkers(t *testing.T, cfg Config, trs []transport.Store, mesh transport.Mesh) []*Result {
	t.Helper()
	P := cfg.NumTrainers
	results := make([]*Result, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = RunLRPPWorker(cfg, p, trs[p], mesh)
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
// loopback TCP — then the state is certified against a baseline run the way
// cmd/bagpipe -net tcp -verify does, via the remote checkpoint.
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

// mapPlanMsgBytes is planMsgBytes as it was written against the map-typed
// plan, whose per-id tables the wire model prices.
func mapPlanMsgBytes(pl *core.TrainerPlan, neededNext int) int64 {
	b := int64(16)
	b += 8 * int64(len(pl.Prefetch))
	b += 16 * int64(len(pl.OwnedTTL))
	b += 8 * int64(len(pl.Expiring))
	for _, us := range pl.Users {
		b += 12 + 4*int64(len(us))
	}
	for _, ids := range pl.ReplicaOut {
		b += 12 + 8*int64(len(ids))
	}
	b += 16 * int64(len(pl.Remote))
	b += 4 + 4*int64(len(pl.ReplicaFrom))
	d := pl.Dec
	b += 8 + 4*int64(len(d.Assign)) + 8*int64(neededNext)
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != pl.Trainer {
			continue
		}
		b += 8 + 4*int64(len(ex.Dense)) + 8*int64(len(ex.Cat)) + 4
	}
	return b
}

// TestPlanMsgBytesMatchesMapFormula: the plan bytes the engine declares
// (mesh_bytes_per_ex's plan share) are what the map-typed formula gives on
// the same plan, on small streams at every trainer count and partitioner
// and on the benchmark's hot-tail and uniform Criteo streams at its batch
// size and window. core's equivalence tests pin the map plan to the
// reference oracle, so the declared bytes are exact by construction.
func TestPlanMsgBytesMatchesMapFormula(t *testing.T) {
	check := func(spec *data.Spec, batch, batches, l, p int, part core.Partitioner) {
		t.Helper()
		o := core.NewOracle(core.NewGeneratorSource(data.NewGenerator(spec, 42), batch, batches), l, p)
		o.Partitioner = part
		for d, ok := o.Next(); ok; d, ok = o.Next() {
			needed := 0
			for _, n := range d.NeededNext {
				if n {
					needed++
				}
			}
			maps := d.SplitPlans(p)
			for tr, pl := range d.Plans(p) {
				if got, want := planMsgBytes(pl), mapPlanMsgBytes(maps[tr], needed); got != want {
					t.Fatalf("%s P=%d iter %d trainer %d: plan declares %d bytes, map formula %d", spec.Name, p, d.Iter, tr, got, want)
				}
			}
		}
	}
	for p := 1; p <= 4; p++ {
		for _, part := range []core.Partitioner{nil, core.RoundRobin{}, &core.CommAware{Own: core.Ownership{}}} {
			check(tinySpec(), 16, 24, 5, p, part)
		}
	}
	criteo := data.CriteoKaggle().Scaled(100).WithEmbDim(16)
	check(criteo, 256, 40, 32, 2, nil)
	check(criteo.WithDist(data.Uniform{}), 256, 40, 32, 2, nil)
}
