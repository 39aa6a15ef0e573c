package train

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// benchSpec is large enough that per-iteration transfers are tens of KB,
// so a bandwidth-limited link makes serialization (not just latency) the
// bottleneck the engines must hide.
func benchSpec() *data.Spec {
	return &data.Spec{
		Name:           "bench",
		NumExamples:    8192,
		NumCategorical: 8,
		NumNumeric:     4,
		TableSizes:     []int64{512, 384, 256, 256, 192, 128, 96, 64},
		EmbDim:         16,
		Dist:           data.NewHotTail(0.05, 0.7, 1.05),
	}
}

func benchConfig(trainers int) Config {
	return Config{
		Spec:        benchSpec(),
		Seed:        42,
		Model:       "wd",
		Optimizer:   "sgd",
		LR:          0.05,
		BatchSize:   128,
		NumBatches:  16,
		LookAhead:   8,
		NumTrainers: trainers,
	}
}

// The reference fabric: 5ms per server call plus 256 KB/s of per-link
// serialization bandwidth — a congested disaggregated deployment where
// embedding traffic, not compute, is the bottleneck (the regime Bagpipe's
// cache-maintenance offloading targets). The baseline pushes every fetch
// and write-back through one link; the LRPP engine caches and splits the
// remaining traffic across one link per trainer.
const (
	benchLatency   = 5 * time.Millisecond
	benchBandwidth = 256e3
)

func reportRun(b *testing.B, res *Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput(), "ex/s")
	b.ReportMetric(float64(res.Elapsed.Milliseconds()), "ms/run")
}

// BenchmarkEnginesSimnet5ms compares the two engines over the identical
// workload and simulated 5ms link; the LRPP rows are the multi-trainer
// partitioned caches (one simnet transport per trainer — its own NIC in
// the disaggregated deployment — plus a simulated trainer mesh).
func BenchmarkEnginesSimnet5ms(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		cfg := benchConfig(4)
		for i := 0; i < b.N; i++ {
			srv := embed.NewServer(4, cfg.Spec.EmbDim, 7, 0.05)
			res, err := RunBaseline(cfg, transport.NewSimNet(srv, benchLatency, benchBandwidth))
			reportRun(b, res, err)
		}
	})
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("lrpp-%dtrainers", p), func(b *testing.B) {
			cfg := benchConfig(p)
			for i := 0; i < b.N; i++ {
				srv := embed.NewServer(4, cfg.Spec.EmbDim, 7, 0.05)
				trs := make([]transport.Store, p)
				for j := range trs {
					trs[j] = transport.NewSimNet(srv, benchLatency, benchBandwidth)
				}
				mesh := transport.NewSimMesh(p, time.Millisecond, 100e6)
				res, err := RunLRPP(cfg, trs, mesh)
				reportRun(b, res, err)
			}
		})
	}
}

// runLRPPTCPOnce runs one full loopback-TCP worker configuration: a
// ServeEmbed server process loop, one TCPLink per trainer, and the trainer
// mesh over real sockets — every message through the little-endian codec.
func runLRPPTCPOnce(b *testing.B, cfg Config, p int) *Result {
	b.Helper()
	srv := embed.NewServer(4, cfg.Spec.EmbDim, 7, 0.05)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- transport.ServeEmbed(lis, srv) }()
	mesh, err := transport.NewLoopbackTCPMesh(p)
	if err != nil {
		b.Fatal(err)
	}
	links := make([]*transport.TCPLink, p)
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for j := 0; j < p; j++ {
		if links[j], err = transport.DialTCPLink(lis.Addr().String(), 5*time.Second); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			results[j], errs[j] = RunLRPPWorker(cfg, j, links[j], mesh)
		}(j)
	}
	wg.Wait()
	mesh.Shutdown()
	links[0].Shutdown()
	for _, l := range links {
		l.Close()
	}
	if err := <-serveDone; err != nil {
		b.Fatal(err)
	}
	for _, e := range errs {
		if e != nil {
			b.Fatal(e)
		}
	}
	return results[0]
}

// BenchmarkLRPPTCP is the measured counterpart to the simnet rows: the
// same workload run as P worker engines over real loopback sockets.
// Loopback has microsecond latency and GB/s bandwidth, so this measures
// the protocol's own cost (framing, codec, syscalls, acked write-backs)
// rather than a congested network; see README's measured-vs-modeled note.
func BenchmarkLRPPTCP(b *testing.B) {
	for _, p := range []int{2, 4} {
		b.Run(fmt.Sprintf("%dtrainers", p), func(b *testing.B) {
			cfg := benchConfig(p)
			for i := 0; i < b.N; i++ {
				reportRun(b, runLRPPTCPOnce(b, cfg, p), nil)
			}
		})
	}
}

// BenchmarkLRPPServerSweep sweeps embedding-tier width × trainer count
// over the congested simulated fabric. Each server sits behind its own
// 5ms / 256KB/s link — its own NIC in the paper's trainer-node/server-node
// topology — so an S-server tier is S links wide: the sharded store's
// concurrent scatter divides each trainer's serialization load across the
// per-server links, where S=1 pushes all bytes down one.
func BenchmarkLRPPServerSweep(b *testing.B) {
	for _, S := range []int{1, 2, 4} {
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%dservers-%dtrainers", S, p), func(b *testing.B) {
				cfg := benchConfig(p)
				for i := 0; i < b.N; i++ {
					tier := make([]*embed.Server, S)
					for s := range tier {
						tier[s] = embed.NewServer(4, cfg.Spec.EmbDim, 7, 0.05)
					}
					trs := make([]transport.Store, p)
					for j := range trs {
						children := make([]transport.Store, S)
						for s := range children {
							children[s] = transport.NewSimNet(tier[s], benchLatency, benchBandwidth)
						}
						if S == 1 {
							trs[j] = children[0]
						} else {
							trs[j] = transport.NewShardedStore(children)
						}
					}
					mesh := transport.NewSimMesh(p, time.Millisecond, 100e6)
					res, err := RunLRPP(cfg, trs, mesh)
					reportRun(b, res, err)
				}
			})
		}
	}
}

// BenchmarkLRPPInproc measures the engine's own overhead with free
// transports: the cost of plans, merges, and mesh bookkeeping.
func BenchmarkLRPPInproc(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dtrainers", p), func(b *testing.B) {
			cfg := benchConfig(p)
			for i := 0; i < b.N; i++ {
				srv := embed.NewServer(4, cfg.Spec.EmbDim, 7, 0.05)
				res, err := RunLRPP(cfg, newStores(srv, p), nil)
				reportRun(b, res, err)
			}
		})
	}
}
