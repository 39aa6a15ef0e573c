package core

import (
	"slices"
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/tensor"
)

// mkBatch builds a one-feature-per-example batch from explicit ids.
func mkBatch(index int, ids ...uint64) *data.Batch {
	b := &data.Batch{Index: index}
	for _, id := range ids {
		b.Examples = append(b.Examples, data.Example{Cat: []uint64{id}, Dense: []float32{0}})
	}
	return b
}

func collect(o *Oracle) []*Decision {
	var ds []*Decision
	for {
		d, ok := o.Next()
		if !ok {
			return ds
		}
		ds = append(ds, d)
	}
}

// ttlOf returns id's TTL in d, or -1 when the batch does not touch id.
func ttlOf(d *Decision, id uint64) int {
	k, ok := slices.BinarySearch(d.IDs, id)
	if !ok {
		return -1
	}
	return d.TTL[k]
}

// at returns id's position in d.IDs, failing the test when absent.
func at(t *testing.T, d *Decision, id uint64) int {
	t.Helper()
	k, ok := slices.BinarySearch(d.IDs, id)
	if !ok {
		t.Fatalf("iter %d does not touch id %d", d.Iter, id)
	}
	return k
}

func hasID(ids []uint64, id uint64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestFigure6WorkedExample replays the paper's Figure 6 step by step:
// ℒ=2, batches {3,9} {4,3} {3,6} {6,1} {9,7}.
func TestFigure6WorkedExample(t *testing.T) {
	src := &SliceSource{Batches: []*data.Batch{
		mkBatch(1, 3, 9),
		mkBatch(2, 4, 3),
		mkBatch(3, 3, 6),
		mkBatch(4, 6, 1),
		mkBatch(5, 9, 7),
	}}
	o := NewOracle(src, 2, 1)
	ds := collect(o)
	if len(ds) != 5 {
		t.Fatalf("got %d decisions want 5", len(ds))
	}

	// Batch 1: prefetch 3 and 9; 3 cached with TTL 2; 9 evicted after.
	d := ds[0]
	if !hasID(d.Prefetch, 3) || !hasID(d.Prefetch, 9) || len(d.Prefetch) != 2 {
		t.Fatalf("batch1 prefetch %v want [3 9]", d.Prefetch)
	}
	if ttlOf(d, 3) != 2 {
		t.Fatalf("batch1 TTL[3]=%d want 2", ttlOf(d, 3))
	}
	if ttlOf(d, 9) != 1 || !hasID(d.EvictAfter(), 9) {
		t.Fatalf("batch1: 9 must expire at iter 1 (TTL=%d, evict=%v)", ttlOf(d, 9), d.EvictAfter())
	}

	// Batch 2: 3 in cache (no prefetch), TTL updated to 3; prefetch 4.
	d = ds[1]
	if hasID(d.Prefetch, 3) {
		t.Fatal("batch2 must not re-prefetch cached 3")
	}
	if !hasID(d.Prefetch, 4) || len(d.Prefetch) != 1 {
		t.Fatalf("batch2 prefetch %v want [4]", d.Prefetch)
	}
	if ttlOf(d, 3) != 3 {
		t.Fatalf("batch2 TTL[3]=%d want 3", ttlOf(d, 3))
	}

	// Batch 3: prefetch 6 cached with TTL 4; 3 evicted after batch 3.
	d = ds[2]
	if !hasID(d.Prefetch, 6) || len(d.Prefetch) != 1 {
		t.Fatalf("batch3 prefetch %v want [6]", d.Prefetch)
	}
	if ttlOf(d, 6) != 4 {
		t.Fatalf("batch3 TTL[6]=%d want 4", ttlOf(d, 6))
	}
	if ttlOf(d, 3) != 3 || !hasID(d.EvictAfter(), 3) {
		t.Fatalf("batch3 must evict 3 (TTL=%d)", ttlOf(d, 3))
	}

	// Batch 4: prefetch 1; 6 has no future use, evicted after.
	d = ds[3]
	if !hasID(d.Prefetch, 1) || hasID(d.Prefetch, 6) || len(d.Prefetch) != 1 {
		t.Fatalf("batch4 prefetch %v want [1]", d.Prefetch)
	}
	if ttlOf(d, 6) != 4 || !hasID(d.EvictAfter(), 6) {
		t.Fatalf("batch4 must evict 6 after use (TTL=%d)", ttlOf(d, 6))
	}

	// Batch 5: 9 was evicted long ago, so it must be prefetched again.
	d = ds[4]
	if !hasID(d.Prefetch, 9) || !hasID(d.Prefetch, 7) {
		t.Fatalf("batch5 prefetch %v want [7 9]", d.Prefetch)
	}
}

func TestLookaheadOnePrefetchesEverything(t *testing.T) {
	// ℒ=1 (window = current batch only) degenerates to no caching at all.
	src := &SliceSource{Batches: []*data.Batch{
		mkBatch(0, 1, 2), mkBatch(1, 1, 2), mkBatch(2, 1, 2),
	}}
	o := NewOracle(src, 1, 1)
	for _, d := range collect(o) {
		if len(d.Prefetch) != 2 {
			t.Fatalf("iter %d prefetch %v want both ids", d.Iter, d.Prefetch)
		}
		if len(d.EvictAfter()) != 2 {
			t.Fatalf("iter %d should evict both ids", d.Iter)
		}
	}
}

func TestLargeLookaheadCachesRepeats(t *testing.T) {
	src := &SliceSource{Batches: []*data.Batch{
		mkBatch(0, 1, 2), mkBatch(1, 1, 3), mkBatch(2, 1, 2),
	}}
	o := NewOracle(src, 10, 1)
	ds := collect(o)
	// id 1 prefetched once, ids 2 cached across the gap.
	if len(ds[0].Prefetch) != 2 {
		t.Fatalf("iter0 prefetch %v", ds[0].Prefetch)
	}
	if len(ds[1].Prefetch) != 1 || !hasID(ds[1].Prefetch, 3) {
		t.Fatalf("iter1 prefetch %v want [3]", ds[1].Prefetch)
	}
	if len(ds[2].Prefetch) != 0 {
		t.Fatalf("iter2 prefetch %v want none", ds[2].Prefetch)
	}
	if ttlOf(ds[0], 1) != 2 || ttlOf(ds[0], 2) != 2 {
		t.Fatalf("iter0 TTLs wrong: %v", ds[0].TTL)
	}
}

// consistency invariant (§3.2): if batch x prefetches id, then no batch in
// [x−ℒ+1, x) used (and hence updated) that id.
func TestConsistencyInvariantProperty(t *testing.T) {
	spec := &data.Spec{
		Name: "t", NumExamples: 1 << 20, NumCategorical: 6, NumNumeric: 1,
		TableSizes: []int64{50, 500, 5000, 50, 500, 5000}, EmbDim: 4,
		Dist: data.NewHotTail(0.01, 0.8, 1.05),
	}
	gen := data.NewGenerator(spec, 5)
	const L, iters, bs = 8, 60, 32
	o := NewOracle(NewGeneratorSource(gen, bs, iters), L, 4)

	history := make([]map[uint64]struct{}, 0, iters)
	for {
		d, ok := o.Next()
		if !ok {
			break
		}
		x := d.Iter
		lo := x - L + 1
		if lo < 0 {
			lo = 0
		}
		for _, id := range d.Prefetch {
			for y := lo; y < x; y++ {
				if _, used := history[y][id]; used {
					t.Fatalf("iter %d prefetches id %d but batch %d used it (stale read possible)", x, id, y)
				}
			}
		}
		// every unique id is either prefetched now or already cached —
		// i.e. it must appear in TTL map either way.
		uniq := d.Batch.UniqueIDs()
		if !slices.Equal(d.IDs, uniq) {
			t.Fatalf("iter %d decides %d ids, batch has %d", x, len(d.IDs), len(uniq))
		}
		set := make(map[uint64]struct{}, len(uniq))
		for _, id := range uniq {
			set[id] = struct{}{}
		}
		history = append(history, set)
	}
	if len(history) != iters {
		t.Fatalf("processed %d iters want %d", len(history), iters)
	}
}

// Replaying decisions against a real Cache must mean every id of the
// current batch is resident at train time and TTLs expire exactly on time.
func TestDecisionsDriveCacheCorrectly(t *testing.T) {
	spec := &data.Spec{
		Name: "t", NumExamples: 1 << 20, NumCategorical: 4, NumNumeric: 1,
		TableSizes: []int64{100, 1000, 100, 1000}, EmbDim: 4,
		Dist: data.NewHotTail(0.01, 0.9, 1.05),
	}
	gen := data.NewGenerator(spec, 9)
	o := NewOracle(NewGeneratorSource(gen, 16, 40), 6, 2)
	cache := NewCache(4)
	for {
		d, ok := o.Next()
		if !ok {
			break
		}
		for _, id := range d.Prefetch {
			cache.Insert(id, make([]float32, 4), ttlOf(d, id))
		}
		for k, id := range d.IDs {
			cache.UpdateTTL(id, d.TTL[k])
		}
		// train step: every unique id must be resident
		for _, id := range d.Batch.UniqueIDs() {
			if _, ok := cache.Get(id); !ok {
				t.Fatalf("iter %d: id %d not resident at train time", d.Iter, id)
			}
		}
		cache.EvictExpired(d.Iter)
		// nothing expired may linger
		for _, id := range cache.IDs() {
			e, _ := cache.Peek(id)
			if e.TTL <= d.Iter {
				t.Fatalf("iter %d: id %d lingers with TTL %d", d.Iter, id, e.TTL)
			}
		}
		if cache.Len() != o.CacheOccupancy() {
			t.Fatalf("iter %d: cache has %d rows, oracle thinks %d", d.Iter, cache.Len(), o.CacheOccupancy())
		}
	}
	if cache.HitRate() <= 0 {
		t.Fatal("skewed trace should produce cache hits")
	}
}

func TestLRPPAnnotations(t *testing.T) {
	// 4 examples, 2 trainers, contiguous split: examples 0,1 → t0; 2,3 → t1.
	b := &data.Batch{Index: 0, Examples: []data.Example{
		{Cat: []uint64{10, 20}}, // t0
		{Cat: []uint64{10, 30}}, // t0
		{Cat: []uint64{20, 40}}, // t1
		{Cat: []uint64{40, 50}}, // t1
	}}
	src := &SliceSource{Batches: []*data.Batch{b, mkBatch(1, 20)}}
	o := NewOracle(src, 2, 2)
	d, ok := o.Next()
	if !ok {
		t.Fatal("no decision")
	}
	wantUsers := map[uint64][]int{
		10: {0}, 30: {0}, 20: {0, 1}, 40: {1}, 50: {1},
	}
	for id, want := range wantUsers {
		if got := d.Users[at(t, d, id)].List(); !slices.Equal(got, want) {
			t.Fatalf("id %d used by %v want %v", id, got, want)
		}
	}
	// 20 is needed by batch 1, stays cached → critical sync.
	if !d.NeededNext[at(t, d, 20)] {
		t.Fatal("id 20 should be marked needed-next (critical path sync)")
	}
	st := d.Stats(o.CacheOccupancy())
	if st.SingleUse != 4 || st.MultiUse != 1 || st.CriticalSync != 1 || st.DelayedSync != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDelayedSyncSplit(t *testing.T) {
	// id 20 shared by both trainers, reused at batch 2 (not batch 1) →
	// delayed sync; id 10 shared and reused at batch 1 → critical.
	b0 := &data.Batch{Index: 0, Examples: []data.Example{
		{Cat: []uint64{10, 20}},
		{Cat: []uint64{10, 20}},
	}}
	src := &SliceSource{Batches: []*data.Batch{b0, mkBatch(1, 10), mkBatch(2, 20)}}
	o := NewOracle(src, 3, 2)
	d, _ := o.Next()
	if !d.NeededNext[at(t, d, 10)] {
		t.Fatal("10 must be critical")
	}
	if d.NeededNext[at(t, d, 20)] {
		t.Fatal("20 must be delayed")
	}
	st := d.Stats(o.CacheOccupancy())
	if st.CriticalSync != 1 || st.DelayedSync != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIterStatsArithmetic(t *testing.T) {
	src := &SliceSource{Batches: []*data.Batch{
		mkBatch(0, 1, 2, 2, 3), mkBatch(1, 1),
	}}
	o := NewOracle(src, 2, 1)
	d, _ := o.Next()
	st := d.Stats(o.CacheOccupancy())
	if st.TotalAccesses != 4 || st.UniqueIDs != 3 {
		t.Fatalf("accesses=%d unique=%d", st.TotalAccesses, st.UniqueIDs)
	}
	if st.Prefetched != 3 || st.CachedHits != 0 {
		t.Fatalf("prefetch=%d hits=%d", st.Prefetched, st.CachedHits)
	}
	if st.Evicted != 2 { // 2 and 3 die at iter 0; 1 survives for iter 1
		t.Fatalf("evicted=%d", st.Evicted)
	}
	if st.CacheOccupancy != 1 {
		t.Fatalf("occupancy=%d", st.CacheOccupancy)
	}
}

// TestPeakOccupancy: the peak is the high-water mark of the per-iteration
// occupancy the oracle reports, and a longer window can only raise it.
func TestPeakOccupancy(t *testing.T) {
	spec := &data.Spec{
		Name: "t", NumExamples: 1 << 20, NumCategorical: 4, NumNumeric: 1,
		TableSizes: []int64{10000, 10000, 10000, 10000}, EmbDim: 4,
		Dist: data.NewHotTail(0.01, 0.8, 1.05),
	}
	peakAt := func(l int) int {
		o := NewOracle(NewGeneratorSource(data.NewGenerator(spec, 3), 64, 30), l, 1)
		high := 0
		for d, ok := o.Next(); ok; d, ok = o.Next() {
			if occ := d.Stats(o.CacheOccupancy()).CacheOccupancy; occ > high {
				high = occ
			}
		}
		if o.CacheOccupancy() != 0 {
			t.Fatalf("L=%d: %d rows still cached after the stream", l, o.CacheOccupancy())
		}
		if o.PeakOccupancy() != high {
			t.Fatalf("L=%d: peak %d, per-iteration high-water mark %d", l, o.PeakOccupancy(), high)
		}
		return high
	}
	if short, long := peakAt(2), peakAt(20); short == 0 || long < short {
		t.Fatalf("peak occupancy %d at L=2, %d at L=20", short, long)
	}
}

func TestEstimateLookahead(t *testing.T) {
	spec := &data.Spec{
		Name: "t", NumExamples: 1 << 20, NumCategorical: 4, NumNumeric: 1,
		TableSizes: []int64{100000, 100000, 100000, 100000}, EmbDim: 4,
		Dist: data.Uniform{},
	}
	gen := data.NewGenerator(spec, 3)
	// uniform over 400k rows: each 64-example batch adds ≈256 new ids
	l := EstimateLookahead(gen, 64, 1000, 100)
	if l < 2 || l > 8 {
		t.Fatalf("EstimateLookahead=%d want ≈4", l)
	}
	if EstimateLookahead(gen, 64, 1<<30, 50) != 50 {
		t.Fatal("huge budget should hit maxL")
	}
}

func TestOracleValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOracle(&SliceSource{}, 0, 1) },
		func() { NewOracle(&SliceSource{}, 1, 0) },
		func() { NewOracle(&SliceSource{}, 1, MaxTrainers+1) },
		func() { // batch indices must strictly increase
			collect(NewOracle(&SliceSource{Batches: []*data.Batch{mkBatch(3, 1), mkBatch(3, 2)}}, 2, 1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGeneratorSourceBounds(t *testing.T) {
	spec := &data.Spec{
		Name: "t", NumExamples: 1 << 20, NumCategorical: 2, NumNumeric: 1,
		TableSizes: []int64{100, 100}, EmbDim: 4, Dist: data.Uniform{},
	}
	gen := data.NewGenerator(spec, 3)
	src := NewGeneratorSource(gen, 8, 3)
	n := 0
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if b.Index != n {
			t.Fatalf("index %d want %d", b.Index, n)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("produced %d batches want 3", n)
	}
}

// property: with any trace, prefetch counts plus hits equals unique ids,
// and ids never appear in prefetch twice while cached.
func TestNoDoublePrefetchProperty(t *testing.T) {
	rng := tensor.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		var batches []*data.Batch
		for i := 0; i < 25; i++ {
			ids := make([]uint64, 6)
			for j := range ids {
				ids[j] = uint64(rng.Intn(30))
			}
			batches = append(batches, mkBatch(i, ids...))
		}
		L := 2 + rng.Intn(8)
		o := NewOracle(&SliceSource{Batches: batches}, L, 2)
		resident := make(map[uint64]int) // id -> ttl
		for {
			d, ok := o.Next()
			if !ok {
				break
			}
			for _, id := range d.Prefetch {
				if ttl, in := resident[id]; in && ttl > d.Iter-1 {
					t.Fatalf("trial %d iter %d: double prefetch of resident id %d", trial, d.Iter, id)
				}
			}
			for k, id := range d.IDs {
				resident[id] = d.TTL[k]
			}
			for id, ttl := range resident {
				if ttl <= d.Iter {
					delete(resident, id)
				}
			}
		}
	}
}
