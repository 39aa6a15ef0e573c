package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/serve"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// The frozen training configuration every workload shares. wd, not dlrm:
// on a 2-core host dlrm's pure-Go MLPs train 20x slower and would turn every
// workload into a matmul benchmark. P and S stay at 2 because the reference
// host has 2 cores; wall-clock P-scaling on shared cores measures the
// scheduler, so it is deliberately not a metric.
const (
	scaleFactor = 100 // data.CriteoKaggle().Scaled(100): 337.6k rows
	embDim      = 16
	modelName   = "wd"
	optName     = "sgd"
	learnRate   = 0.05
	batchSize   = 256
	lookAhead   = 32
	numTrainers = 2
	numServers  = 2
	numShards   = 4
	initScale   = 0.05

	// warmupIters is excluded from every steady-state number and is what
	// setup_s trains: 2ℒ iterations fill the pipeline, materialise the hot
	// rows and grow the arenas.
	warmupIters = 2 * lookAhead
	// checkIters sizes the set-up/differential runs: the warm-up plus one
	// more window, so the first warmupIters iterations see a full lookahead
	// window exactly as they do in the timed run.
	checkIters = warmupIters + lookAhead

	// Serving front end (one per workload, over its own tier client).
	serveClients   = 2
	serveMaxStale  = 8
	serveCacheRows = 4096
	serveLimit     = 25 * time.Millisecond // latency limit from due time
)

// fabric describes how trainers reach the embedding tier and each other.
type fabric struct {
	kind    string // "inproc", "sim" or "tcp"
	linkLat time.Duration
	linkBW  float64 // bytes/s per server link
	meshLat time.Duration
	meshBW  float64 // bytes/s per directed trainer link
}

// workload is one frozen benchmark input. The names are final: later
// issues cite them.
type workload struct {
	name string
	why  string
	// uniform draws categorical keys uniformly, so the lookahead cache is
	// bypassed; false keeps the spec's hot-tail skew (0.1% of rows take 90%
	// of accesses).
	uniform   bool
	fab       fabric
	replicate int
	// worker runs one RunLRPPWorker per trainer over the mesh (plans and
	// collectives cross it); false runs the single-process RunLRPP.
	worker bool
	// batchesPerSec turns --seconds into fixed work: the timed run trains
	// warmupIters + seconds*batchesPerSec batches, so counts repeat exactly
	// for a seed. The three hot-tail workloads share one value and therefore
	// one train.Config: any gap between them is the fabric path's.
	batchesPerSec int
	// qps is the open-loop query arrival rate; queryDist its key popularity.
	qps       float64
	queryDist string
	// serveLive offers the queries while training runs, from the end of
	// warm-up until the last batch. Otherwise they are offered for
	// quietServe after training has finished: with both cores saturated by
	// trainers and no link wait to yield in, a query's latency is the OS
	// scheduler's wake-up delay (p95 2.1-3.9 ms across runs of one build),
	// so only the workload built for contention serves under it.
	serveLive bool
}

// quietServe is how long a workload without serveLive serves its trained
// tier.
const quietServe = 3 * time.Second

const hotTailBatchesPerSec = 30

var workloads = []workload{
	{
		name:          "train-local",
		why:           "hot-tail keys on in-process fabric: nothing to hide, so compute, oracle and cache bookkeeping dominate; quiet reads after",
		fab:           fabric{kind: "inproc"},
		replicate:     1,
		batchesPerSec: hotTailBatchesPerSec,
		qps:           200,
		queryDist:     "zipf",
	},
	{
		name:          "train-remote",
		why:           "same train.Config over 10ms/5MB/s server links and a 3ms/20MB/s mesh: prefetch overlap and delayed sync decide it; quiet reads after",
		fab:           fabric{kind: "sim", linkLat: 10 * time.Millisecond, linkBW: 5e6, meshLat: 3 * time.Millisecond, meshBW: 20e6},
		replicate:     1,
		batchesPerSec: hotTailBatchesPerSec,
		qps:           100,
		queryDist:     "zipf",
	},
	{
		name:          "train-tcp-cold",
		why:           "uniform keys bypass the cache; worker engines, codec, loopback sockets and 2-way replicated writes carry 7x the bytes; quiet reads after",
		uniform:       true,
		fab:           fabric{kind: "tcp"},
		replicate:     2,
		worker:        true,
		batchesPerSec: 25,
		qps:           200,
		queryDist:     "uniform",
	},
	{
		name:          "serve-live",
		why:           "same train.Config on 1ms links under 600 qps open-loop zipf reads: training and serving contend for one tier",
		fab:           fabric{kind: "sim", linkLat: time.Millisecond, linkBW: 50e6, meshLat: 500 * time.Microsecond, meshBW: 100e6},
		replicate:     1,
		batchesPerSec: hotTailBatchesPerSec,
		qps:           600,
		queryDist:     "zipf",
		serveLive:     true,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) spec() *data.Spec {
	s := data.CriteoKaggle().Scaled(scaleFactor).WithEmbDim(embDim)
	if w.uniform {
		s = s.WithDist(data.Uniform{})
	}
	return s
}

// timedBatches is the fixed work --seconds buys on this workload.
func (w *workload) timedBatches(seconds int) int {
	return warmupIters + seconds*w.batchesPerSec
}

func (w *workload) trainConfig(seed uint64, batches int) train.Config {
	return train.Config{
		Spec:        w.spec(),
		Seed:        seed,
		Model:       modelName,
		Optimizer:   optName,
		LR:          learnRate,
		BatchSize:   batchSize,
		NumBatches:  batches,
		LookAhead:   lookAhead,
		NumTrainers: numTrainers,
		Collective:  train.CollFused,
	}
}

// rig is one constructed workload: servers, per-trainer tier clients, the
// trainer mesh and the serving front end, ready to run once.
type rig struct {
	w       *workload
	cfg     train.Config
	servers []*embed.Server
	stores  []transport.Store // top-level tier client per trainer
	mesh    transport.Mesh
	fe      *serve.Frontend
	feTier  *transport.ShardedStore
	prog    *train.Progress

	listeners []net.Listener
	serveDone []chan error
	links     []*transport.TCPLink
	tcpMesh   *transport.LoopbackTCPMesh
}

// newRig builds everything setup_s charges for: servers, listeners, dials,
// tier clients, mesh and front end. With tr non-nil the top-level stores,
// the front end's read store and the mesh are wrapped in its decorators and
// its hooks are installed; the children under each tier client are never
// wrapped, so the tier's instant/fallible fast paths are unchanged.
func newRig(w *workload, seed uint64, batches int, tr *tracer) (*rig, error) {
	r := &rig{w: w, cfg: w.trainConfig(seed, batches), prog: train.NewProgress(numTrainers)}
	r.cfg.Progress = r.prog
	for s := 0; s < numServers; s++ {
		r.servers = append(r.servers, embed.NewServer(numShards, embDim, seed^0xE, initScale))
	}
	if w.fab.kind == "tcp" {
		for _, srv := range r.servers {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, fmt.Errorf("listen for embedding server: %w", err)
			}
			done := make(chan error, 1)
			go func() { done <- transport.ServeEmbed(lis, srv) }()
			r.listeners = append(r.listeners, lis)
			r.serveDone = append(r.serveDone, done)
		}
	}
	for p := 0; p < numTrainers; p++ {
		tier, err := r.tierClient()
		if err != nil {
			r.close()
			return nil, err
		}
		var st transport.Store = tier
		if tr != nil {
			st = tr.wrapStore(p, tier)
		}
		r.stores = append(r.stores, st)
	}
	switch w.fab.kind {
	case "inproc":
		r.mesh = transport.NewInprocMesh(numTrainers)
	case "sim":
		r.mesh = transport.NewSimMesh(numTrainers, w.fab.meshLat, w.fab.meshBW)
	case "tcp":
		lb, err := transport.NewLoopbackTCPMesh(numTrainers)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("loopback mesh: %w", err)
		}
		r.tcpMesh, r.mesh = lb, lb
	}
	if tr != nil {
		r.mesh = tr.wrapMesh(r.mesh)
		r.cfg.Hooks = tr.hooks()
	}

	feTier, err := r.tierClient()
	if err != nil {
		r.close()
		return nil, err
	}
	r.feTier = feTier
	var read transport.ReadStore = feTier
	if tr != nil {
		read = tr.wrapReadStore(read)
	}
	r.fe, err = serve.New(serve.Config{
		Store:     read,
		Spec:      r.cfg.Spec,
		Model:     modelName,
		Seed:      seed,
		Epoch:     r.prog,
		MaxStale:  serveMaxStale,
		CacheRows: serveCacheRows,
		Clients:   serveClients,
		Servers:   numServers,
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("front end: %w", err)
	}
	return r, nil
}

// tierClient builds one client of the embedding tier over the workload's
// fabric: one child per server under a sharded store.
func (r *rig) tierClient() (*transport.ShardedStore, error) {
	f := r.w.fab
	children := make([]transport.Store, numServers)
	for s, srv := range r.servers {
		switch f.kind {
		case "inproc":
			children[s] = transport.NewInProcess(srv)
		case "sim":
			children[s] = transport.NewSimNet(srv, f.linkLat, f.linkBW)
		case "tcp":
			link, err := transport.DialTCPLink(r.listeners[s].Addr().String(), 5*time.Second)
			if err != nil {
				return nil, fmt.Errorf("dial embedding server %d: %w", s, err)
			}
			r.links = append(r.links, link)
			children[s] = link
		}
	}
	return transport.NewTier(children, transport.TierOptions{Replicate: r.w.replicate}), nil
}

// train runs the workload's engine to completion and returns the merged
// result of every trainer this process hosted.
func (r *rig) train() (*train.Result, error) {
	if !r.w.worker {
		return train.RunLRPP(r.cfg, r.stores, r.mesh)
	}
	results := make([]*train.Result, numTrainers)
	errs := make([]error, numTrainers)
	var wg sync.WaitGroup
	for p := 0; p < numTrainers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p], errs[p] = train.RunLRPPWorker(r.cfg, p, r.stores[p], r.mesh)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", p, err)
		}
	}
	return mergeWorkers(results), nil
}

// mergeWorkers folds per-worker results into the shape RunLRPP reports:
// traffic and flush counters add up; the oracle's cache statistics and the
// loss live on rank 0, which hosted the oracle.
func mergeWorkers(rs []*train.Result) *train.Result {
	out := *rs[0]
	for _, r := range rs[1:] {
		out.Evicted += r.Evicted
		out.PeakCache += r.PeakCache
		out.Transport.Add(r.Transport)
		out.ReplicaRows += r.ReplicaRows
		out.SyncEntries += r.SyncEntries
		out.UrgentFlushes += r.UrgentFlushes
		out.DelayedFlushes += r.DelayedFlushes
		m, o := &out.MeshClasses, r.MeshClasses
		m.ReplicaMsgs += o.ReplicaMsgs
		m.ReplicaBytes += o.ReplicaBytes
		m.SyncMsgs += o.SyncMsgs
		m.SyncBytes += o.SyncBytes
		m.CollMsgs += o.CollMsgs
		m.CollBytes += o.CollBytes
		m.PlanMsgs += o.PlanMsgs
		m.PlanBytes += o.PlanBytes
		if r.Tier != nil {
			if out.Tier == nil {
				out.Tier = &transport.TierHealth{}
			}
			out.Tier.Retries += r.Tier.Retries
			out.Tier.Failovers += r.Tier.Failovers
		}
		if r.Elapsed > out.Elapsed {
			out.Elapsed = r.Elapsed
		}
	}
	// Result.Mesh is the shared fabric's total, identical on every worker.
	return &out
}

// fingerprint certifies the tier's final state through trainer 0's client.
func (r *rig) fingerprint() uint64 { return r.stores[0].Fingerprint() }

// tierHealth sums the failure-handling counters of every tier client,
// the front end's included; all must stay zero on these workloads.
func (r *rig) tierHealth() (retries, failovers int64) {
	add := func(h transport.TierHealth) {
		retries += h.Retries
		failovers += h.Failovers
	}
	add(r.feTier.TierHealth())
	for _, st := range r.stores {
		// Both *transport.ShardedStore and its traced wrapper expose it.
		add(st.(interface{ TierHealth() transport.TierHealth }).TierHealth())
	}
	return retries, failovers
}

// close stops every goroutine and socket the rig started and waits for the
// embedding-server loops to return. Safe on a partly built rig.
func (r *rig) close() {
	if r.tcpMesh != nil {
		r.tcpMesh.Shutdown()
	}
	// The first tier client dialled the servers in order, so links[s] reaches
	// server s: one shutdown op each stops its accept loop and connections.
	for s := 0; s < len(r.listeners) && s < len(r.links); s++ {
		r.links[s].Shutdown()
	}
	for _, l := range r.links {
		l.Close()
	}
	for s, done := range r.serveDone {
		r.listeners[s].Close() // no-op after a shutdown op; unblocks a server no link reached
		<-done
	}
}
