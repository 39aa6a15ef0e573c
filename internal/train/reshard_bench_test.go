package train

import (
	"testing"
	"time"

	"bagpipe/internal/reshard"
	"bagpipe/internal/transport"
)

// BenchmarkReshardInterference measures what a live migration costs
// training: the same LRPP run over a 2-server tier, first undisturbed, then
// with a coordinator growing the tier 2->4 mid-run (dual-write window,
// export/stream/verify rounds, and per-partition cutovers all riding the
// same servers the trainers are hammering). Each sub-benchmark reports
// train ex/s — the pair lands in the CI bench artifact as the
// reshard-interference sweep.
func BenchmarkReshardInterference(b *testing.B) {
	b.Run("reshard-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(runTrainUnderReshard(b, 0), "train-ex/s")
		}
	})
	b.Run("reshard-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(runTrainUnderReshard(b, 4), "train-ex/s")
		}
	})
}

// runTrainUnderReshard runs one LRPP training pass over a replicated
// 2-server tier, migrating it to `to` servers mid-run (0 disables the
// migration), and returns train examples/sec.
func runTrainUnderReshard(b *testing.B, to int) float64 {
	b.Helper()
	const P, S, R, capacity = 2, 2, 2, 4
	cfg := tinyConfig()
	cfg.NumTrainers = P
	cfg.NumBatches = 40

	tier := newTier(cfg.Spec, capacity, 3)
	mkStore := func() transport.Store {
		children := make([]transport.Store, capacity)
		for s, srv := range tier {
			children[s] = transport.NewInProcess(srv)
		}
		return transport.NewTier(children, transport.TierOptions{
			Replicate:      R,
			InitialServers: S,
		})
	}
	trs := make([]transport.Store, P)
	for i := range trs {
		trs[i] = mkStore()
	}

	reshardDone := make(chan struct{})
	if to > 0 {
		coord := mkStore().(*transport.ShardedStore)
		go func() {
			defer close(reshardDone)
			time.Sleep(5 * time.Millisecond)
			rep, err := reshard.Run(coord, reshard.Options{
				To:           to,
				RoundBackoff: time.Millisecond,
			})
			if err != nil {
				b.Errorf("reshard: %v", err)
			} else if rep.Aborted {
				b.Errorf("reshard aborted: %+v", rep)
			}
		}()
	} else {
		close(reshardDone)
	}

	res, err := RunLRPP(cfg, trs, nil)
	<-reshardDone
	if err != nil {
		b.Fatal(err)
	}
	return res.Throughput()
}
