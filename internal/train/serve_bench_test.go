package train

import (
	"testing"
	"time"

	"bagpipe/internal/serve"
	"bagpipe/internal/transport"
)

// BenchmarkServeInterference measures what serving load costs training: the
// same LRPP run over a 2-server tier, first alone, then with closed-loop
// inference clients hammering the tier through the read path. Each
// sub-benchmark reports train ex/s (plus served qps for the serving leg) —
// the pair lands in the CI bench artifact as the serve-interference sweep.
func BenchmarkServeInterference(b *testing.B) {
	b.Run("serving-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exps, _ := runTrainUnderServing(b, 0)
			b.ReportMetric(exps, "train-ex/s")
		}
	})
	b.Run("serving-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exps, qps := runTrainUnderServing(b, 4)
			b.ReportMetric(exps, "train-ex/s")
			b.ReportMetric(qps, "served-qps")
		}
	})
}

// runTrainUnderServing runs one LRPP training pass over a 2-server tier
// with clients unpaced closed-loop serving clients riding the same tier
// (0 disables serving), returning train examples/sec and served qps.
func runTrainUnderServing(b *testing.B, clients int) (exPerSec, qps float64) {
	b.Helper()
	const P, S = 2, 2
	cfg := tinyConfig()
	cfg.NumTrainers = P
	cfg.NumBatches = 40

	tier := newTier(cfg.Spec, S, 3)
	mkStore := func() transport.Store {
		children := make([]transport.Store, S)
		for s, srv := range tier {
			children[s] = transport.NewInProcess(srv)
		}
		return transport.NewShardedStore(children)
	}
	trs := make([]transport.Store, P)
	for i := range trs {
		trs[i] = mkStore()
	}
	prog := NewProgress(P)
	cfg.Progress = prog

	trainDone := make(chan struct{})
	var lr serve.LoadResult
	loadDone := make(chan struct{})
	if clients > 0 {
		fe, err := serve.New(serve.Config{
			Store:     transport.AsReadStore(mkStore()),
			Spec:      cfg.Spec,
			Model:     cfg.Model,
			Seed:      cfg.Seed,
			Epoch:     prog,
			MaxStale:  4,
			CacheRows: 256,
			Clients:   clients,
			Servers:   S,
		})
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			defer close(loadDone)
			lr, err = serve.RunLoad(serve.LoadConfig{
				Frontend: fe,
				Spec:     cfg.Spec,
				Seed:     17,
				Clients:  clients,
				Dist:     "zipf",
				Duration: time.Minute,
			}, trainDone)
			if err != nil {
				b.Error(err)
			}
		}()
	} else {
		close(loadDone)
	}

	res, err := RunLRPP(cfg, trs, nil)
	close(trainDone)
	<-loadDone
	if err != nil {
		b.Fatal(err)
	}
	exPerSec = res.Throughput()
	if clients > 0 && lr.Elapsed > 0 {
		qps = float64(lr.Served) / lr.Elapsed.Seconds()
	}
	return exPerSec, qps
}
