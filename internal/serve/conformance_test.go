package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// The serving conformance suite: while an LRPP training run mutates the
// tier, every embedding row the front end serves must be a value the tier
// actually held at some write-back epoch (no torn or phantom rows), every
// served cache hit must respect the advertised staleness bound, and the
// final trained state must be untouched by the read load. The matrix runs
// every fabric (inproc, sim, tcp) × tier width S ∈ {1,2} × replication
// R ∈ {1,2} under -race.
//
// The torn/phantom detector is a history-checking tier wrapper: every
// client (P trainers + the serving front end) routes through a historyStore
// that records a checksum of every row value ever written — seeded with the
// keyspace's deterministic initial values — and checks every fetched row's
// checksum against that history. Recording happens *before* the write is
// forwarded, so any read that observes a value finds it recorded; a fetch
// whose checksum is absent is a row the tier never held.

// tierHist is the shared write history: id → the set of row checksums ever
// written (plus the initial materialization values).
type tierHist struct {
	mu    sync.Mutex
	seen  map[uint64]map[uint32]bool
	torn  atomic.Int64
	first atomic.Value // string: first violation, for the failure message
}

func newTierHist() *tierHist {
	return &tierHist{seen: map[uint64]map[uint32]bool{}}
}

// recordInit seeds the history with every id's deterministic initial row
// (embed row materialization depends only on (seed, id), not the server, so
// a shadow server with the same parameters reproduces them all).
func (h *tierHist) recordInit(spec *data.Spec, shards int, seed uint64, scale float32) {
	shadow := embed.NewServer(shards, spec.EmbDim, seed, scale)
	total := uint64(spec.TotalRows())
	for id := uint64(0); id < total; id++ {
		h.record(id, shadow.Get(id))
	}
}

func (h *tierHist) record(id uint64, row []float32) {
	s := rowSum(row)
	h.mu.Lock()
	set := h.seen[id]
	if set == nil {
		set = map[uint32]bool{}
		h.seen[id] = set
	}
	set[s] = true
	h.mu.Unlock()
}

func (h *tierHist) check(id uint64, row []float32) {
	s := rowSum(row)
	h.mu.Lock()
	ok := h.seen[id][s]
	h.mu.Unlock()
	if !ok {
		if h.torn.Add(1) == 1 {
			h.first.Store(fmt.Sprintf("id %d checksum %08x not in tier history", id, s))
		}
	}
}

// historyStore wraps one client's transport to one server, recording writes
// into and checking fetches against the shared history.
type historyStore struct {
	transport.Link
	h *tierHist
}

func newHistoryStore(child transport.Link, h *tierHist) *historyStore {
	return &historyStore{Link: child, h: h}
}

func (s *historyStore) recordAll(ids []uint64, rows [][]float32) {
	for i, id := range ids {
		s.h.record(id, rows[i])
	}
}

func (s *historyStore) checkAll(ids []uint64, rows [][]float32) {
	for i, id := range ids {
		s.h.check(id, rows[i])
	}
}

func (s *historyStore) Fetch(ids []uint64) [][]float32 {
	rows := s.Link.Fetch(ids)
	s.checkAll(ids, rows)
	return rows
}

func (s *historyStore) Write(ids []uint64, rows [][]float32) {
	s.recordAll(ids, rows)
	s.Link.Write(ids, rows)
}

func (s *historyStore) TryFetch(ids []uint64) ([][]float32, error) {
	rows, err := s.Link.TryFetch(ids)
	if err == nil {
		s.checkAll(ids, rows)
	}
	return rows, err
}

func (s *historyStore) TryWrite(ids []uint64, rows [][]float32) error {
	s.recordAll(ids, rows)
	return s.Link.TryWrite(ids, rows)
}

// Conformance-run shape: small enough for the full matrix under -race,
// long enough that serving overlaps live write-back traffic.
const (
	confShards    = 3
	confSeed      = 7
	confInitScale = 0.05
)

func confSpec() *data.Spec {
	return &data.Spec{
		Name:           "conf",
		NumExamples:    320,
		NumCategorical: 4,
		NumNumeric:     3,
		TableSizes:     []int64{64, 48, 32, 16},
		EmbDim:         8,
		Dist:           data.NewHotTail(0.05, 0.7, 1.05),
	}
}

func confTrainCfg(spec *data.Spec, P int) train.Config {
	return train.Config{
		Spec:        spec,
		Seed:        42,
		Model:       "wd",
		Optimizer:   "sgd",
		LR:          0.05,
		BatchSize:   16,
		NumBatches:  24,
		LookAhead:   4,
		NumTrainers: P,
	}
}

func confServers(spec *data.Spec, S int) []*embed.Server {
	tier := make([]*embed.Server, S)
	for i := range tier {
		tier[i] = embed.NewServer(confShards, spec.EmbDim, confSeed, confInitScale)
	}
	return tier
}

// confFabric builds n independent tier clients (one per trainer plus one
// for the front end) over the same S servers, each child wrapped in a
// historyStore.
type confFabric struct {
	name  string
	build func(t *testing.T, tier []*embed.Server, n, R int, h *tierHist) ([]transport.Store, func())
}

func tierOf(children []transport.Store, R int) transport.Store {
	if len(children) == 1 {
		return children[0]
	}
	return transport.NewTier(children, transport.TierOptions{
		Replicate: R,
		Retries:   2,
		Backoff:   time.Millisecond,
	})
}

func confFabrics() []confFabric {
	return []confFabric{
		{"inproc", func(t *testing.T, tier []*embed.Server, n, R int, h *tierHist) ([]transport.Store, func()) {
			stores := make([]transport.Store, n)
			for i := range stores {
				children := make([]transport.Store, len(tier))
				for s, srv := range tier {
					children[s] = newHistoryStore(transport.NewInProcess(srv), h)
				}
				stores[i] = tierOf(children, R)
			}
			return stores, func() {}
		}},
		{"sim", func(t *testing.T, tier []*embed.Server, n, R int, h *tierHist) ([]transport.Store, func()) {
			stores := make([]transport.Store, n)
			for i := range stores {
				children := make([]transport.Store, len(tier))
				for s, srv := range tier {
					children[s] = newHistoryStore(transport.NewSimNet(srv, 200*time.Microsecond, 0), h)
				}
				stores[i] = tierOf(children, R)
			}
			return stores, func() {}
		}},
		{"tcp", func(t *testing.T, tier []*embed.Server, n, R int, h *tierHist) ([]transport.Store, func()) {
			addrs := make([]string, len(tier))
			joins := make([]func(), len(tier))
			for s, srv := range tier {
				addrs[s], joins[s] = startConfEmbedServer(t, srv)
			}
			stores := make([]transport.Store, n)
			for i := range stores {
				children := make([]transport.Store, len(tier))
				for s := range tier {
					link, err := transport.DialTCPLink(addrs[s], 5*time.Second)
					if err != nil {
						t.Fatalf("dial server %d: %v", s, err)
					}
					children[s] = newHistoryStore(link, h)
				}
				stores[i] = tierOf(children, R)
			}
			return stores, func() {
				stores[len(stores)-1].Shutdown()
				for _, j := range joins {
					j()
				}
			}
		}},
	}
}

func startConfEmbedServer(t *testing.T, srv *embed.Server) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- transport.ServeEmbed(lis, srv) }()
	return lis.Addr().String(), func() {
		if err := <-done; err != nil {
			t.Errorf("ServeEmbed: %v", err)
		}
	}
}

// TestServeConformanceMatrix is the tentpole property: concurrent serving
// over a live training tier yields zero torn rows, zero phantom rows, zero
// staleness violations — on every fabric, tier width, and replication
// factor — and the read load leaves the trained state bit-identical to a
// serve-free baseline.
func TestServeConformanceMatrix(t *testing.T) {
	type combo struct{ S, R int }
	combos := []combo{{1, 1}, {2, 1}, {2, 2}}
	for _, fab := range confFabrics() {
		for _, c := range combos {
			t.Run(fmt.Sprintf("%s_S%d_R%d", fab.name, c.S, c.R), func(t *testing.T) {
				runServeConformance(t, fab, c.S, c.R)
			})
		}
	}
}

func runServeConformance(t *testing.T, fab confFabric, S, R int) {
	const P = 2
	spec := confSpec()
	cfg := confTrainCfg(spec, P)

	// Serve-free reference for the trained-state comparison.
	srvBase := embed.NewServer(confShards, spec.EmbDim, confSeed, confInitScale)
	base, err := train.RunBaseline(cfg, transport.NewInProcess(srvBase))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	hist := newTierHist()
	hist.recordInit(spec, confShards, confSeed, confInitScale)
	tier := confServers(spec, S)
	stores, cleanup := fab.build(t, tier, P+1, R, hist)
	defer cleanup()

	prog := train.NewProgress(P)
	cfg.Progress = prog

	fe, err := New(Config{
		Store:     transport.AsReadStore(stores[P]),
		Spec:      spec,
		Model:     cfg.Model,
		Seed:      cfg.Seed,
		Epoch:     prog,
		MaxStale:  4,
		CacheRows: 128,
		Clients:   3,
		Servers:   S,
	})
	if err != nil {
		t.Fatal(err)
	}

	trainDone := make(chan struct{})
	var (
		res      *train.Result
		trainErr error
	)
	go func() {
		defer close(trainDone)
		res, trainErr = train.RunLRPP(cfg, stores[:P], nil)
	}()
	lr, err := RunLoad(LoadConfig{
		Frontend: fe,
		Spec:     spec,
		Seed:     99,
		Clients:  3,
		Dist:     "zipf",
		Duration: time.Minute, // bounded by training finishing, not the clock
	}, trainDone)
	<-trainDone
	if trainErr != nil {
		t.Fatalf("training under serving load: %v", trainErr)
	}
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	if lr.Served == 0 {
		t.Fatal("serving loop never completed a query while training ran")
	}
	if lr.TierShed != 0 || lr.OtherErrs != 0 {
		t.Fatalf("healthy tier shed traffic: %+v", lr)
	}
	if n := hist.torn.Load(); n != 0 {
		t.Fatalf("%d torn/phantom fetches (first: %v)", n, hist.first.Load())
	}
	audit := fe.Audit()
	if !audit.Clean() {
		t.Fatalf("audit failed: %v", audit)
	}
	if audit.WorstStale > 4 {
		t.Fatalf("served a hit %d epochs stale past the bound of 4", audit.WorstStale)
	}

	// The read-only front end must not perturb training: the tier's final
	// state is bit-identical to the serve-free baseline.
	var merged *embed.Server
	if S == 1 {
		merged = tier[0]
	} else if merged, err = embed.MergeTierReplicated(tier, R, nil); err != nil {
		t.Fatal(err)
	}
	if d := embed.Diff(srvBase, merged); len(d) != 0 {
		t.Fatalf("tier diverged from serve-free baseline at %d ids (first: %v)", len(d), d[0])
	}
	if base.FirstLoss != res.FirstLoss || base.LastLoss != res.LastLoss {
		t.Fatalf("losses diverged under serving load: baseline %v/%v got %v/%v",
			base.FirstLoss, base.LastLoss, res.FirstLoss, res.LastLoss)
	}
}

// TestServeOrderIndependence pins that serving is a pure function of the
// quiesced tier: two fresh front ends serving the same query set in
// opposite orders return bit-identical scores.
func TestServeOrderIndependence(t *testing.T) {
	spec := confSpec()
	cfg := confTrainCfg(spec, 2)
	tier := confServers(spec, 2)
	hist := newTierHist()
	hist.recordInit(spec, confShards, confSeed, confInitScale)
	fabs := confFabrics()
	stores, cleanup := fabs[0].build(t, tier, 3, 1, hist)
	defer cleanup()
	if _, err := train.RunLRPP(cfg, stores[:2], nil); err != nil {
		t.Fatal(err)
	}

	const nq = 200
	queries := make([]data.Example, nq)
	qg := data.NewQueryGen(spec, 5, 0, data.NewZipf(1.1))
	for i := range queries {
		qg.Next(&queries[i])
		queries[i].Dense = append([]float32(nil), queries[i].Dense...)
		queries[i].Cat = append([]uint64(nil), queries[i].Cat...)
	}

	serveAll := func(order func(i int) int) []float32 {
		fe, err := New(Config{
			Store:     transport.AsReadStore(stores[2]),
			Spec:      spec,
			Model:     cfg.Model,
			Seed:      cfg.Seed,
			Epoch:     FixedEpoch(0),
			MaxStale:  1 << 40,
			CacheRows: 64, // small enough to force evictions and refetches
			Clients:   1,
			Servers:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float32, nq)
		for i := 0; i < nq; i++ {
			j := order(i)
			score, err := fe.Serve(0, &queries[j])
			if err != nil {
				t.Fatalf("query %d: %v", j, err)
			}
			out[j] = score
		}
		if !fe.Audit().Clean() {
			t.Fatalf("audit failed: %v", fe.Audit())
		}
		return out
	}

	fwd := serveAll(func(i int) int { return i })
	rev := serveAll(func(i int) int { return nq - 1 - i })
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("query %d scored %v forward, %v reversed", i, fwd[i], rev[i])
		}
	}
}
