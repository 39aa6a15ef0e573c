package train

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/transport"
)

// lrppAuditor is the invariant ledger the fuzz harness hangs off the
// engine's hooks. It rebuilds, purely from the event stream, the state the
// paper's consistency argument (§3.2–3.3) reasons about, and records any
// violation:
//
//   - ownership: a row is only ever inserted into its hash owner's
//     partition, and is resident in at most one partition;
//   - staleness: a prefetch never observes a row whose dirty eviction has
//     not been written back, and re-prefetch happens at least ℒ iterations
//     after the eviction (the window law);
//   - pacing: iteration x is admitted only after x−ℒ retired (token law),
//     and retirement is strictly in iteration order;
//   - sync window: a synchronization merge only ever lands on a row while
//     it is resident in its owner's partition.
type lrppAuditor struct {
	mu sync.Mutex
	P  int
	L  int

	resident  map[uint64]int // id → partition currently holding it
	pendingWB map[uint64]struct{}
	evictIter map[uint64]int
	retired   []int // per trainer: iterations retired so far (in order)

	violations []string
}

func newAuditor(p, l int) *lrppAuditor {
	return &lrppAuditor{
		P: p, L: l,
		resident:  make(map[uint64]int),
		pendingWB: make(map[uint64]struct{}),
		evictIter: make(map[uint64]int),
		retired:   make([]int, p),
	}
}

func (a *lrppAuditor) violatef(format string, args ...any) {
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

func (a *lrppAuditor) hooks() *LRPPHooks {
	return &LRPPHooks{
		OnPrefetch: func(trainer, iter int, ids []uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			if a.retired[trainer] < iter+1-a.L {
				a.violatef("trainer %d prefetched iter %d with only %d iterations retired (window %d)",
					trainer, iter, a.retired[trainer], a.L)
			}
			for _, id := range ids {
				if core.OwnerOf(id, a.P) != trainer {
					a.violatef("trainer %d prefetched foreign id %d", trainer, id)
				}
				if holder, ok := a.resident[id]; ok {
					a.violatef("iter %d: prefetch of id %d while resident in partition %d", iter, id, holder)
				}
				if _, ok := a.pendingWB[id]; ok {
					a.violatef("iter %d: prefetch of id %d would observe a stale row (write-back pending)", iter, id)
				}
				if ev, ok := a.evictIter[id]; ok && iter-ev < a.L {
					a.violatef("id %d re-prefetched at iter %d only %d iters after eviction (window %d)",
						id, iter, iter-ev, a.L)
				}
			}
		},
		OnInsert: func(trainer, iter int, id uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			if core.OwnerOf(id, a.P) != trainer {
				a.violatef("id %d inserted into partition %d, hash owner is %d", id, trainer, core.OwnerOf(id, a.P))
			}
			if holder, ok := a.resident[id]; ok {
				a.violatef("id %d inserted into partition %d while resident in %d (ownership not disjoint)",
					id, trainer, holder)
			}
			a.resident[id] = trainer
		},
		OnSyncApply: func(owner, iter int, id uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			if holder, ok := a.resident[id]; !ok || holder != owner {
				a.violatef("sync for id %d iter %d landed outside residency (holder %d ok=%v)", id, iter, holder, ok)
			}
		},
		OnEvict: func(owner, iter int, id uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			if holder, ok := a.resident[id]; !ok || holder != owner {
				a.violatef("eviction of id %d from partition %d which does not hold it", id, owner)
			}
			delete(a.resident, id)
			a.pendingWB[id] = struct{}{}
			a.evictIter[id] = iter
		},
		OnWriteBack: func(owner, iter int, ids []uint64) {
			a.mu.Lock()
			defer a.mu.Unlock()
			for _, id := range ids {
				if _, ok := a.pendingWB[id]; !ok {
					a.violatef("write-back of id %d without a pending eviction", id)
				}
				delete(a.pendingWB, id)
			}
		},
		OnRetire: func(owner, iter int) {
			a.mu.Lock()
			defer a.mu.Unlock()
			if iter != a.retired[owner] {
				a.violatef("trainer %d retired iter %d out of order (expected %d)", owner, iter, a.retired[owner])
			}
			a.retired[owner]++
		},
	}
}

// finish asserts the end-of-run invariants and reports all violations.
func (a *lrppAuditor) finish(t *testing.T) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.resident) != 0 {
		a.violatef("%d rows still resident after the run", len(a.resident))
	}
	if len(a.pendingWB) != 0 {
		a.violatef("%d evictions never written back", len(a.pendingWB))
	}
	for i, v := range a.violations {
		if i >= 10 {
			t.Errorf("... and %d more violations", len(a.violations)-10)
			break
		}
		t.Error(v)
	}
}

// fuzzSpec is deliberately tiny and hot: a few dozen rows per table so
// random streams constantly re-touch, evict, and re-prefetch rows across
// the consistency window.
func fuzzSpec() *data.Spec {
	return &data.Spec{
		Name:           "fuzz",
		NumExamples:    192,
		NumCategorical: 3,
		NumNumeric:     2,
		TableSizes:     []int64{24, 16, 12},
		EmbDim:         4,
		Dist:           data.NewHotTail(0.08, 0.6, 1.1),
	}
}

// skewStore delays every write-back by d, so the trainer it serves retires
// late while its peers run a full window ahead.
type skewStore struct {
	transport.Store
	d time.Duration
}

func (s skewStore) Write(ids []uint64, rows [][]float32) {
	time.Sleep(s.d)
	s.Store.Write(ids, rows)
}

// FuzzLRPPDifferential drives the LRPP engine over fuzzer-chosen trainer
// counts, lookahead depths, batch shapes, partitioners, sync modes and
// fabrics — in-process, or simulated server links plus a simulated,
// reordering trainer mesh with sub-millisecond latencies, where write-backs
// coalesce and replica pushes race the previous iteration's compute — and,
// under skew, trainer 0's write-backs each 1–3 ms late, so the peers' pushes
// reach it as far ahead of its retirement as the window allows; on every
// input it (a) audits the consistency invariants through the hook ledger
// and (b) differentially checks the final embedding state is bit-identical
// to RunBaseline. The seeded corpus runs in regular `go test` mode, so CI
// exercises the harness even without -fuzz.
func FuzzLRPPDifferential(f *testing.F) {
	f.Add(uint64(42), uint8(1), uint8(4), uint8(6), uint8(8), uint8(0), false, false)
	f.Add(uint64(7), uint8(2), uint8(0), uint8(3), uint8(6), uint8(1), false, false)  // L=1
	f.Add(uint64(9), uint8(3), uint8(2), uint8(7), uint8(10), uint8(2), false, false) // comm-aware
	f.Add(uint64(1), uint8(0), uint8(5), uint8(2), uint8(4), uint8(2), false, false)  // P=1 degenerate
	f.Add(uint64(1234), uint8(3), uint8(1), uint8(5), uint8(9), uint8(1), false, false)
	f.Add(uint64(42), uint8(1), uint8(4), uint8(6), uint8(9), uint8(0), true, false) // simulated fabric
	f.Add(uint64(5), uint8(2), uint8(3), uint8(4), uint8(9), uint8(1), true, false)
	f.Add(uint64(3), uint8(1), uint8(0), uint8(4), uint8(9), uint8(0), false, true) // skew, P=2 L=1
	f.Add(uint64(8), uint8(1), uint8(1), uint8(4), uint8(9), uint8(0), false, true) // skew, P=2 L=2
	f.Fuzz(func(t *testing.T, seed uint64, pSel, lSel, bSel, nSel, partSel uint8, sim, skew bool) {
		p := 1 + int(pSel)%4
		cfg := Config{
			Spec:        fuzzSpec(),
			Seed:        seed,
			Model:       "wd",
			Optimizer:   "sgd",
			LR:          0.05,
			BatchSize:   2 + int(bSel)%8,
			NumBatches:  2 + int(nSel)%10,
			LookAhead:   1 + int(lSel)%6,
			NumTrainers: p,
		}
		switch partSel % 3 {
		case 1:
			cfg.Partitioner = core.RoundRobin{}
		case 2:
			cfg.Partitioner = core.Contiguous{}
		}

		srvBase := embed.NewServer(2, cfg.Spec.EmbDim, seed^0xBEEF, 0.05)
		if _, err := RunBaseline(cfg, transport.NewInProcess(srvBase)); err != nil {
			t.Fatalf("baseline: %v", err)
		}

		aud := newAuditor(p, cfg.LookAhead)
		cfg.Hooks = aud.hooks()
		srvLRPP := embed.NewServer(2, cfg.Spec.EmbDim, seed^0xBEEF, 0.05)
		trs := newStores(srvLRPP, p)
		var mesh transport.Mesh
		if sim {
			// 50–400 µs links, drawn from the seed so an input replays.
			lat := func(salt uint64) time.Duration {
				return time.Duration(50+50*((seed>>salt)%8)) * time.Microsecond
			}
			for i := range trs {
				trs[i] = transport.NewSimNet(srvLRPP, lat(0), 200e6)
			}
			mesh = transport.NewSimMesh(p, lat(3), 50e6)
		}
		if skew {
			trs[0] = skewStore{trs[0], time.Duration(1+seed%3) * time.Millisecond}
		}
		res, err := RunLRPP(cfg, trs, mesh)
		if err != nil {
			t.Fatalf("lrpp: %v", err)
		}
		aud.finish(t)

		if srvBase.Fingerprint() != srvLRPP.Fingerprint() {
			d := embed.Diff(srvBase, srvLRPP)
			t.Fatalf("state diverged from baseline at %d ids (first %v) [P=%d L=%d B=%d N=%d part=%d sim=%v skew=%v]",
				len(d), d[:1], p, cfg.LookAhead, cfg.BatchSize, cfg.NumBatches, partSel%3, sim, skew)
		}
		if res.Evicted != res.Prefetched {
			t.Fatalf("evicted %d != prefetched %d", res.Evicted, res.Prefetched)
		}
		if res.Mesh.Dropped != 0 {
			t.Fatalf("%d mesh messages dropped", res.Mesh.Dropped)
		}
	})
}
