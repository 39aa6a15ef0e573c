package train

import (
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/optim"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// The steady-state harness drives exactly the hot-path primitives one LRPP
// iteration composes — slot registration with its merge record, pooled tier
// fetch, partition insert, replica snapshot, sender-side
// gradient pre-aggregation into arena-backed partials (rankPartials),
// deposits into the merge's per-rank slots, the owner's rank-ordered fold
// (foldParts), row update, merge retirement, eviction, acked write-back,
// buffer recycling —
// across P persistent trainer goroutines over an S-way sharded in-process
// tier, with none of the oracle bookkeeping that allocates per run by
// design (plans). This is the surface the 0 allocs/op acceptance bar is
// measured on: after warmup, every buffer the loop touches comes from and
// returns to the transport pools and the per-worker scratch.

// steadyWorker is one persistent trainer goroutine of the harness. Workers
// live across benchmark ops (spawning goroutines per op would itself
// allocate) and are signaled through int channels.
type steadyWorker struct {
	store transport.Store
	part  partition
	slots []int32
	arena *transport.RowArena
	opt   interface {
		optim.Optimizer
		optim.RowOptimizer
	}
	ids  []uint64
	fold []float32
	// Gradient merge fixture: a sub-batch whose examples read w.ids, the
	// backward pass's dEmb for it, the row-table position of each of their
	// fields (w.ids[p] is at p), one partial table per simulated sender
	// rank, and the partials the folds spent.
	batch    *data.Batch
	mine     []int
	dEmb     *tensor.Matrix
	pos      []int32
	partials [][][]float32
	spent    [][]float32
	evIDs    []uint64
	evRows   [][]float32
	work     chan int
	done     chan struct{}
}

func (w *steadyWorker) loop() {
	for iter := range w.work {
		w.step(iter)
		w.done <- struct{}{}
	}
}

// step is one trainer's iteration over the hot-path primitives.
func (w *steadyWorker) step(iter int) {
	// Registration: every row gets its slot and this iteration's merge,
	// awaiting one partial per sender rank, exactly as stage's step 1.
	senders := rankBits(1)<<uint(len(w.partials)) - 1
	for i, id := range w.ids {
		s := w.part.slot(id)
		w.part.expect(s, iter, senders)
		w.slots[i] = s
	}
	// Prefetch: pooled header + arena rows, adopted by the partition.
	rows := w.store.Fetch(w.ids)
	for i, s := range w.slots {
		w.part.insert(s, rows[i])
		w.part.recs[s].ttl = iter
	}
	transport.PutRowSlice(rows)
	// Every sender rank pre-aggregates its sub-batch's gradients into one
	// arena-backed partial per row, exactly as compute's step 8 does.
	dim := w.arena.Dim()
	for _, partial := range w.partials {
		w.arena.GetN(partial)
		rankPartials(partial, w.pos, w.dEmb, dim)
	}
	// Replica push + merge per row: snapshot into a pooled buffer; deposit
	// the ranks' partials in
	// the merge's slots, fold them in rank order (which recycles them),
	// apply one optimizer update and retire the merge.
	for i, id := range w.ids {
		s := w.slots[i]
		rec := &w.part.recs[s]
		snap := w.arena.Get()
		copy(snap, rec.row)
		w.arena.Put(snap)
		for r, partial := range w.partials {
			im, parts := w.part.merge(s, iter)
			if !im.expect.clearBit(r) {
				panic("steady: partial not expected")
			}
			parts[r] = partial[i]
		}
		im, parts := w.part.ready(s)
		if im == nil {
			panic("steady: merge incomplete after every deposit")
		}
		w.spent = foldParts(w.fold, parts, w.spent)
		w.opt.UpdateRow(id, rec.row, w.fold)
		w.part.pop(s)
	}
	w.arena.PutN(w.spent)
	w.spent = w.spent[:0]
	// Evict, write back, recycle — the row's single return point.
	w.evIDs, w.evRows = w.evIDs[:0], w.evRows[:0]
	for _, s := range w.slots {
		ev := w.part.evict(s)
		w.evIDs = append(w.evIDs, ev.ID)
		w.evRows = append(w.evRows, ev.Row)
	}
	w.store.Write(w.evIDs, w.evRows)
	w.arena.PutN(w.evRows)
}

type steadyHarness struct {
	workers []*steadyWorker
}

// newSteadyHarness builds P persistent workers over an S-server in-process
// tier (one ShardedStore per worker, like the LRPP engine's per-trainer
// stores), each cycling rowsPer distinct ids per iteration.
func newSteadyHarness(tb testing.TB, P, S, dim, rowsPer int) *steadyHarness {
	tb.Helper()
	tier := make([]*embed.Server, S)
	for s := range tier {
		tier[s] = embed.NewServer(1, dim, 7, 0.05)
	}
	// Two examples per four-row slice of ids, so every partial sums two
	// contributions; two sender ranks, so every fold sums two partials.
	const numCat, senders = 4, 2
	h := &steadyHarness{}
	for p := 0; p < P; p++ {
		children := make([]transport.Store, S)
		for s := range children {
			children[s] = transport.NewInProcess(tier[s])
		}
		opt, err := newOptimizer("sgd", 0.05)
		if err != nil {
			tb.Fatal(err)
		}
		w := &steadyWorker{
			store: transport.NewShardedStore(children),
			part:  newPartition(senders),
			slots: make([]int32, rowsPer),
			arena: transport.Rows(dim),
			opt:   opt,
			fold:  make([]float32, dim),
			work:  make(chan int),
			done:  make(chan struct{}),
		}
		for i := 0; i < rowsPer; i++ {
			w.ids = append(w.ids, uint64(p*rowsPer+i))
		}
		w.batch = &data.Batch{}
		for i := 0; i+numCat <= rowsPer; i += numCat {
			for dup := 0; dup < 2; dup++ {
				w.mine = append(w.mine, len(w.batch.Examples))
				w.batch.Examples = append(w.batch.Examples, data.Example{Cat: w.ids[i : i+numCat]})
				for c := 0; c < numCat; c++ {
					w.pos = append(w.pos, int32(i+c))
				}
			}
		}
		w.dEmb = tensor.NewMatrix(len(w.mine), numCat*dim)
		for k := range w.dEmb.Data {
			w.dEmb.Data[k] = 1e-3 * float32(k%7)
		}
		for r := 0; r < senders; r++ {
			w.partials = append(w.partials, make([][]float32, rowsPer))
		}
		h.workers = append(h.workers, w)
		go w.loop()
	}
	return h
}

// step runs one synchronized iteration across every worker.
func (h *steadyHarness) step(iter int) {
	for _, w := range h.workers {
		w.work <- iter
	}
	for _, w := range h.workers {
		<-w.done
	}
}

func (h *steadyHarness) close() {
	for _, w := range h.workers {
		close(w.work)
	}
}

// BenchmarkLRPPSteadyState is the allocation acceptance benchmark: P=4
// trainers over an S=2 sharded tier must report 0 allocs/op once the pools
// are warm. CI runs it with -benchmem and fails the build on any nonzero
// allocs/op (see .github/workflows/ci.yml).
func BenchmarkLRPPSteadyState(b *testing.B) {
	h := newSteadyHarness(b, 4, 2, 16, 32)
	defer h.close()
	for i := 0; i < 5; i++ {
		h.step(i) // materialize rows, warm pools and map buckets
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.step(i + 5)
	}
	b.ReportMetric(float64(4*32), "rows/op")
}

// TestSteadyStateAllocFree is the same bar as a plain test, so `go test`
// catches an allocation regression even when nobody runs benchmarks.
func TestSteadyStateAllocFree(t *testing.T) {
	h := newSteadyHarness(t, 4, 2, 16, 32)
	defer h.close()
	iter := 0
	for ; iter < 5; iter++ {
		h.step(iter)
	}
	avg := testing.AllocsPerRun(50, func() {
		h.step(iter)
		iter++
	})
	if avg >= 0.1 {
		t.Fatalf("steady-state iteration allocates %.2f times per run, want 0", avg)
	}
}
