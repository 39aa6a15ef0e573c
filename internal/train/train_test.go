package train

import (
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
		Spec:            tinySpec(),
		Seed:            42,
		Model:           "wd",
		Optimizer:       "sgd",
		LR:              0.05,
		BatchSize:       16,
		NumBatches:      40, // two full passes over tinySpec's 320 examples
		LookAhead:       5,
		NumTrainers:     2,
		PrefetchWorkers: 2,
	}
}

func newServer(spec *data.Spec, shards int) *embed.Server {
	return embed.NewServer(shards, spec.EmbDim, 7, 0.05)
}

// TestPipelinedMatchesBaselineMultiEpoch is the end-to-end consistency
// property: the pipelined cached engine and the no-cache fetch-per-batch
// baseline must leave the embedding servers in bit-identical state (and
// report bit-identical losses) over a run covering the dataset twice.
// Run under -race this also exercises every concurrent stage.
func TestPipelinedMatchesBaselineMultiEpoch(t *testing.T) {
	for _, opt := range []string{"sgd", "adagrad", "adam"} {
		cfg := tinyConfig()
		cfg.Optimizer = opt
		if opt != "sgd" {
			cfg.NumBatches = 20 // keep the stateful-optimizer runs cheap
		}

		srvBase := newServer(cfg.Spec, 3)
		base, err := RunBaseline(cfg, transport.NewInProcess(srvBase))
		if err != nil {
			t.Fatalf("%s baseline: %v", opt, err)
		}
		srvPipe := newServer(cfg.Spec, 3)
		pipe, err := RunPipelined(cfg, transport.NewInProcess(srvPipe))
		if err != nil {
			t.Fatalf("%s pipelined: %v", opt, err)
		}

		if d := embed.Diff(srvBase, srvPipe); len(d) != 0 {
			t.Fatalf("%s: embedding state diverged at %d ids (first: %v)", opt, len(d), d[0])
		}
		if base.FirstLoss != pipe.FirstLoss || base.LastLoss != pipe.LastLoss {
			t.Fatalf("%s: losses diverged: baseline %v/%v pipelined %v/%v",
				opt, base.FirstLoss, base.LastLoss, pipe.FirstLoss, pipe.LastLoss)
		}
		if pipe.LastLoss >= pipe.FirstLoss {
			t.Fatalf("%s: model did not learn: first %v last %v", opt, pipe.FirstLoss, pipe.LastLoss)
		}
		if pipe.CachedHits == 0 {
			t.Fatalf("%s: cache never hit — the oracle is not doing its job", opt)
		}
		if pipe.Prefetched >= base.Prefetched {
			t.Fatalf("%s: pipelined fetched %d rows, baseline %d — caching saved nothing",
				opt, pipe.Prefetched, base.Prefetched)
		}
	}
}

// TestLookaheadInvariance: the lookahead depth changes the schedule, not
// the math — any ℒ must land in the same final embedding state.
func TestLookaheadInvariance(t *testing.T) {
	var ref *embed.Server
	for _, L := range []int{1, 3, 16} {
		cfg := tinyConfig()
		cfg.NumBatches = 20
		cfg.LookAhead = L
		srv := newServer(cfg.Spec, 2)
		if _, err := RunPipelined(cfg, transport.NewInProcess(srv)); err != nil {
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

// TestPartitionerInvariance: round-robin partitioning re-routes examples
// across ranks; with rank-ordered reduction the result must not change.
func TestRoundRobinPartitioner(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumBatches = 12
	cfg.Partitioner = core.RoundRobin{}
	srvBase := newServer(cfg.Spec, 2)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}
	srvPipe := newServer(cfg.Spec, 2)
	if _, err := RunPipelined(cfg, transport.NewInProcess(srvPipe)); err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, srvPipe); len(d) != 0 {
		t.Fatalf("round-robin: states diverged at %v", d)
	}
}

// TestPipelineOverlapsStages runs the pipelined engine over a simulated
// network slow enough that, if the stages actually run on separate
// goroutines, prefetch and write-back must be observed in flight while the
// trainer computes — and the final state must still match a baseline run
// on a plain in-process transport (the link is a timing model only).
func TestPipelineOverlapsStages(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumBatches = 30
	cfg.NumTrainers = 1
	cfg.LookAhead = 6
	cfg.PrefetchWorkers = 3

	srvPipe := newServer(cfg.Spec, 2)
	pipe, err := RunPipelined(cfg, transport.NewSimNet(srvPipe, 3*time.Millisecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.OverlapPrefetchTrain == 0 {
		t.Fatal("prefetch was never observed overlapping training")
	}
	if pipe.OverlapMaintTrain == 0 {
		t.Fatal("write-back was never observed overlapping training")
	}
	if pipe.Transport.SimulatedDelay == 0 {
		t.Fatal("simnet transport recorded no delay")
	}

	srvBase := newServer(cfg.Spec, 2)
	if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, srvPipe); len(d) != 0 {
		t.Fatalf("simnet run diverged from baseline at %v", d)
	}
}

// TestPipelineAccounting checks the conservation laws of the cache:
// every unique id is either a hit or a prefetch, and every prefetched row
// is eventually evicted and written back exactly once.
func TestPipelineAccounting(t *testing.T) {
	cfg := tinyConfig()
	srv := newServer(cfg.Spec, 2)
	tr := transport.NewInProcess(srv)
	res, err := RunPipelined(cfg, tr)
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
	bad.LookAhead = 0
	if _, err := RunPipelined(bad, tr); err == nil {
		t.Fatal("lookahead 0 accepted")
	}
	bad = good
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
	if _, err := RunPipelined(bad, tr); err == nil {
		t.Fatal("zero trainers accepted")
	}
	// One trainer set is one core.Ranks word, for every engine.
	bad.NumTrainers = core.MaxTrainers + 1
	if _, err := RunPipelined(bad, tr); err == nil {
		t.Fatal("65 trainers accepted by the pipelined engine")
	}
	if _, err := RunBaseline(bad, tr); err == nil {
		t.Fatal("65 trainers accepted by the baseline")
	}
}
