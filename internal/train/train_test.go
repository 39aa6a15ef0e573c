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

// tinySpec is a dataset small enough that a few dozen batches cover it more
// than once, with the paper's skewed access shape preserved.
func tinySpec() *data.Spec {
	return &data.Spec{
		Name:           "tiny",
		NumExamples:    320,
		NumCategorical: 4,
		NumNumeric:     3,
		TableSizes:     []int64{64, 48, 32, 16},
		EmbDim:         8,
		Dist:           data.NewHotTail(0.05, 0.7, 1.05),
	}
}

func tinyConfig() Config {
	return Config{
		Spec:        tinySpec(),
		Seed:        42,
		Model:       "wd",
		Optimizer:   "sgd",
		LR:          0.05,
		BatchSize:   16,
		NumBatches:  40, // two full passes over tinySpec's 320 examples
		LookAhead:   5,
		NumTrainers: 2,
	}
}

func newServer(spec *data.Spec, shards int) *embed.Server {
	return embed.NewServer(shards, spec.EmbDim, 7, 0.05)
}

// TestLRPPMatchesBaselineEveryOptimizer is the end-to-end consistency
// property for every row optimizer, stateful ones included: the LRPP engine
// and the no-cache fetch-per-batch baseline must leave the embedding servers
// in bit-identical state (and report bit-identical losses) over a run
// covering the dataset twice, at one trainer and at two, and once more
// through the worker entry point over an in-process mesh. Run under -race
// this also exercises every concurrent stage.
func TestLRPPMatchesBaselineEveryOptimizer(t *testing.T) {
	type leg struct {
		opt    string
		p      int
		worker bool
	}
	var legs []leg
	for _, opt := range []string{"sgd", "momentum", "adagrad", "adam"} {
		for _, p := range []int{1, 2} {
			legs = append(legs, leg{opt: opt, p: p})
		}
	}
	legs = append(legs, leg{opt: "adam", p: 2, worker: true})

	for _, l := range legs {
		name := fmt.Sprintf("%s_P%d", l.opt, l.p)
		if l.worker {
			name += "_worker"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Optimizer = l.opt
			cfg.NumTrainers = l.p
			if l.opt != "sgd" {
				cfg.NumBatches = 20 // keep the stateful-optimizer runs cheap
			}

			srvBase := newServer(cfg.Spec, 3)
			base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			srv := newServer(cfg.Spec, 3)
			var res *Result
			if l.worker {
				res = runWorkers(t, cfg, newStores(srv, l.p), transport.NewInprocMesh(l.p))[0]
			} else if res, err = RunLRPP(cfg, newStores(srv, l.p), nil); err != nil {
				t.Fatalf("lrpp: %v", err)
			}

			if d := embed.Diff(srvBase, srv); len(d) != 0 {
				t.Fatalf("embedding state diverged at %d ids (first: %v)", len(d), d[0])
			}
			if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
				t.Fatalf("losses diverged: baseline %v/%v lrpp %v/%v",
					base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
			}
			if res.LastLoss >= res.FirstLoss {
				t.Fatalf("model did not learn: first %v last %v", res.FirstLoss, res.LastLoss)
			}
			if res.CachedHits == 0 {
				t.Fatal("cache never hit — the oracle is not doing its job")
			}
			if res.Prefetched >= base.Prefetched {
				t.Fatalf("lrpp fetched %d rows, baseline %d — caching saved nothing", res.Prefetched, base.Prefetched)
			}
		})
	}
}

// TestPipelineOverlapsStages runs one LRPP trainer over a simulated network
// slow enough that, if the stages actually run on separate goroutines,
// prefetch and write-back must be observed in flight while the trainer
// computes — and the final state must still match a baseline run on a
// plain in-process transport (the link is a timing model only).
func TestPipelineOverlapsStages(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumBatches = 30
	cfg.NumTrainers = 1
	cfg.LookAhead = 6

	srv := newServer(cfg.Spec, 2)
	res, err := RunLRPP(cfg, []transport.Store{transport.NewSimNet(srv, 3*time.Millisecond, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlapPrefetchTrain == 0 {
		t.Fatal("prefetch was never observed overlapping training")
	}
	if res.OverlapMaintTrain == 0 {
		t.Fatal("write-back was never observed overlapping training")
	}
	if res.Transport.SimulatedDelay == 0 {
		t.Fatal("simnet transport recorded no delay")
	}

	srvBase := newServer(cfg.Spec, 2)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, srv); len(d) != 0 {
		t.Fatalf("simnet run diverged from baseline at %v", d)
	}
}

// TestPipelineAccounting checks the conservation laws of the partitioned
// cache: every unique id is either a hit or a prefetch, the trainers'
// stores fetched exactly the prefetched rows, and every prefetched row is
// evicted and written back exactly once — through coalesced write-backs
// that carry several iterations per store write.
func TestPipelineAccounting(t *testing.T) {
	cfg := tinyConfig()
	srv := newServer(cfg.Spec, 2)
	res, err := RunLRPP(cfg, newStores(srv, cfg.NumTrainers), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedHits+res.Prefetched != res.UniqueIDs {
		t.Fatalf("hits %d + prefetched %d != unique %d", res.CachedHits, res.Prefetched, res.UniqueIDs)
	}
	if res.Evicted != res.Prefetched {
		t.Fatalf("evicted %d != prefetched %d (rows leaked or written twice)", res.Evicted, res.Prefetched)
	}
	if res.Transport.RowsFetched != res.Prefetched {
		t.Fatalf("transport fetched %d rows, oracle prefetched %d", res.Transport.RowsFetched, res.Prefetched)
	}
	if res.Transport.RowsWritten != res.Evicted {
		t.Fatalf("transport wrote %d rows, evicted %d", res.Transport.RowsWritten, res.Evicted)
	}
	if res.PeakCache <= 0 {
		t.Fatal("peak cache occupancy not tracked")
	}
	if hr := res.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("implausible hit rate %v", hr)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig()
	srv := newServer(good.Spec, 1)
	tr := transport.NewInProcess(srv)

	bad := good
	bad.Spec = nil
	if _, err := RunBaseline(bad, tr); err == nil {
		t.Fatal("nil spec accepted")
	}
	bad = good
	bad.Optimizer = "lbfgs"
	if _, err := RunBaseline(bad, tr); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
	bad = good
	bad.Model = "bert"
	if _, err := RunBaseline(bad, tr); err == nil {
		t.Fatal("unknown model accepted")
	}
	bad = good
	bad.NumTrainers = 0
	if _, err := RunLRPP(bad, nil, nil); err == nil {
		t.Fatal("zero trainers accepted")
	}
	// One trainer set is one core.Ranks word, for every engine.
	bad.NumTrainers = core.MaxTrainers + 1
	if _, err := RunLRPP(bad, newStores(srv, bad.NumTrainers), nil); err == nil {
		t.Fatal("65 trainers accepted by the lrpp engine")
	}
	if _, err := RunBaseline(bad, tr); err == nil {
		t.Fatal("65 trainers accepted by the baseline")
	}
}
