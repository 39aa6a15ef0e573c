// Package core implements Bagpipe's primary contribution: the Oracle
// Cacher with its lookahead algorithm (Algorithm 1 of the paper), the
// trainer-side TTL cache it drives, the logically-replicated
// physically-partitioned (LRPP) synchronization planner with delayed
// (critical-path-aware) synchronization, and the batch partitioners used to
// compare cache designs (§3.3).
//
// The Oracle Cacher looks ℒ batches beyond the current batch to decide,
// for every embedding the current batch touches, (a) whether it must be
// prefetched (cache miss) and (b) how long it must stay cached — its TTL,
// the last iteration inside the lookahead window that uses it. This yields
// Belady-style perfect caching while guaranteeing consistency: when batch x
// trains, an embedding it needs is either cached with its latest value, or
// no batch in [x−ℒ, x) updated it, so a prefetch issued after batch x−ℒ's
// write-backs can never observe a stale value (§3.2).
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"bagpipe/internal/data"
)

// MaxTrainers bounds the trainer count: a set of trainers is one Ranks
// word.
const MaxTrainers = 64

// Ranks is a set of trainer ranks, bit r standing for rank r.
type Ranks uint64

// Has reports whether rank r is in the set.
func (r Ranks) Has(rank int) bool { return r&(1<<uint(rank)) != 0 }

// Count returns the number of ranks in the set.
func (r Ranks) Count() int { return bits.OnesCount64(uint64(r)) }

// List returns the set's ranks in ascending order, nil when it is empty.
func (r Ranks) List() []int {
	var out []int
	for ; r != 0; r &= r - 1 {
		out = append(out, bits.TrailingZeros64(uint64(r)))
	}
	return out
}

// BatchSource supplies the ordered batch stream the Oracle Cacher inspects.
type BatchSource interface {
	// Next returns the next batch, or ok=false when the stream ends. Batch
	// indices must strictly increase along the stream.
	Next() (b *data.Batch, ok bool)
}

// BatchRecycler is a BatchSource that takes batches back to fill again. An
// oracle over one returns each batch once every plan of its decision has
// been handed back (Plan.Release).
type BatchRecycler interface {
	BatchSource
	// Recycle takes back a batch nothing reads any more.
	Recycle(b *data.Batch)
}

// GeneratorSource adapts a data.Generator to a BatchSource over a fixed
// range of iterations. It is a BatchRecycler: Next fills a batch handed
// back through Recycle when there is one.
type GeneratorSource struct {
	Gen       *data.Generator
	BatchSize int
	NextIndex int
	Limit     int // exclusive upper bound on batch index

	mu   sync.Mutex
	free []*data.Batch
}

// NewGeneratorSource streams batches [0, limit) of the given size.
func NewGeneratorSource(gen *data.Generator, batchSize, limit int) *GeneratorSource {
	return &GeneratorSource{Gen: gen, BatchSize: batchSize, Limit: limit}
}

// Next implements BatchSource.
func (g *GeneratorSource) Next() (*data.Batch, bool) {
	if g.NextIndex >= g.Limit {
		return nil, false
	}
	var b *data.Batch
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		b = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	}
	g.mu.Unlock()
	b = g.Gen.BatchInto(b, g.NextIndex, g.BatchSize)
	g.NextIndex++
	return b, true
}

// Recycle implements BatchRecycler.
func (g *GeneratorSource) Recycle(b *data.Batch) {
	g.mu.Lock()
	g.free = append(g.free, b)
	g.mu.Unlock()
}

// SliceSource is a BatchSource over a fixed slice (tests).
type SliceSource struct {
	Batches []*data.Batch
	pos     int
}

// Next implements BatchSource.
func (s *SliceSource) Next() (*data.Batch, bool) {
	if s.pos >= len(s.Batches) {
		return nil, false
	}
	b := s.Batches[s.pos]
	s.pos++
	return b, true
}

// Decision is the Oracle Cacher's output for one iteration: the batch
// itself plus every cache/prefetch/synchronization instruction the trainers
// need. It corresponds to the TTLUpdateRequests and CacheFetchRequests of
// Algorithm 1, extended with the LRPP single-trainer marks (§3.3) and the
// delayed-synchronization split (§3.3, "Delayed Synchronization").
//
// The per-id facts are parallel slices over IDs, the batch's unique
// embedding IDs in ascending order, so every list derived from them by one
// pass (Plans) comes out sorted.
type Decision struct {
	Iter  int
	Batch *data.Batch

	// Prefetch lists the embedding IDs the batch needs that are not in the
	// (logically replicated) cache, ascending; trainers fetch these from
	// the embedding servers, overlapped with earlier iterations' compute.
	Prefetch []uint64

	// Assign maps each example index to the trainer that will process it.
	Assign []int

	// IDs lists every unique embedding ID in the batch, ascending.
	IDs []uint64

	// TTL[k] is the last iteration within the lookahead window that uses
	// IDs[k]. An entry whose TTL equals Iter is used only by this batch and
	// is evicted (with write-back) right after it.
	TTL []int

	// Users[k] is the set of trainers whose partition touches IDs[k]. IDs
	// with a single user are the LRPP fast path: only that trainer fetches
	// them and no collective synchronization happens for them.
	Users []Ranks

	// NeededNext[k] marks IDs[k] as remaining cached after this iteration
	// and read by the very next batch: its synchronization is on the
	// critical path, everything else can be delayed into the next forward
	// pass.
	NeededNext []bool

	set *planSet // the plan set Plans cuts this decision into, if Next made one
}

// IterStats summarizes a decision for the performance model and the
// experiment harness.
type IterStats struct {
	Iter           int
	BatchSize      int
	TotalAccesses  int
	UniqueIDs      int
	Prefetched     int // cache misses fetched from embedding servers
	CachedHits     int // unique IDs served from the trainer cache
	Evicted        int // IDs evicted (written back) after this iteration
	SingleUse      int // LRPP: IDs used by exactly one trainer
	MultiUse       int // IDs used by >1 trainer (all-reduce synchronized)
	CriticalSync   int // multi-use IDs needed by iteration+1 (critical path)
	DelayedSync    int // multi-use IDs deferred to background sync
	CacheOccupancy int // oracle's view of cache rows after this iteration
}

// Stats derives IterStats from the decision. cacheOccupancy is the oracle's
// post-iteration InCache size, passed by the Oracle.
func (d *Decision) Stats(cacheOccupancy int) IterStats {
	st := IterStats{
		Iter:           d.Iter,
		BatchSize:      d.Batch.Size(),
		TotalAccesses:  d.Batch.TotalAccesses(),
		UniqueIDs:      len(d.IDs),
		Prefetched:     len(d.Prefetch),
		CacheOccupancy: cacheOccupancy,
	}
	st.CachedHits = st.UniqueIDs - st.Prefetched
	for k, users := range d.Users {
		if d.TTL[k] == d.Iter {
			st.Evicted++
		}
		if users.Count() == 1 {
			st.SingleUse++
			continue
		}
		st.MultiUse++
		if d.NeededNext[k] {
			st.CriticalSync++
		} else {
			st.DelayedSync++
		}
	}
	return st
}

// Oracle is the Oracle Cacher: a centralized service that inspects batches
// LookAhead iterations beyond the current one and emits Decisions.
//
// Every id is interned once, when the first window batch that uses it
// enters the window, into a private slot that lives until the id's last
// window use has been decided; the IDTable recycles slots, so their number
// is bounded by the distinct ids of one window. Everything Next computes
// per id — last use, residency, membership of the next batch — is a field
// of that slot; the users of the current batch are a word per row of its
// batchRows, the accesses resolved at fill time that CommAware places by.
// Each window batch's distinct ids are grouped by a radix sort, so the walk
// consults no Go map and sorts nothing by comparison.
type Oracle struct {
	// LookAhead is ℒ: the size of the inspection window in batches,
	// counting the current batch, exactly as in Algorithm 1's
	// BatchQueue.size() < LookAheadValue bound and the Figure 6 worked
	// example (the paper's default is 200). The oracle therefore sees
	// ℒ−1 batches beyond the one being dispatched.
	LookAhead int
	// NumTrainers is the trainer count used for LRPP annotations.
	NumTrainers int
	// Partitioner assigns batch examples to trainers; nil means
	// DefaultPartitioner.
	Partitioner Partitioner

	src      BatchSource
	plans    planPool // the plan sets of this oracle's decisions
	queue    []*window
	spare    []*window // recycled window buffers
	recycled *Decision // handed back by Recycle, for the next Next
	done     bool
	last     int // index of the newest batch in the window (-1 before the first)

	ids   IDTable
	slots []oracleSlot
	epoch uint32   // stamp generator: every fill and every Next draws a fresh one
	radix []idSlot // SortByID's scratch, swapped with each filled window's uniq

	users  []Ranks // the trainers touching each row of the batch being decided
	placer Placer  // CommAware's scratch

	cached int // ids the oracle considers resident (Algorithm 1's InCache)
	peak   int
}

// oracleSlot is one interned id's state.
type oracleSlot struct {
	last   int    // newest window batch using the id: its TTL
	stamp  uint32 // epoch of the last fill or next-batch mark that saw it
	row    int32  // the id's row in the batch being filled
	owner  uint8  // OwnerOf(id, NumTrainers)
	cached bool
}

// window is one queued batch with its accesses resolved to batch-local
// rows, the numbering CommAware places by.
type window struct {
	b    *data.Batch
	rows batchRows
	uniq []idSlot // the batch's distinct ids, ascending
}

type idSlot struct {
	id   uint64
	slot int32
	row  int32
}

// NewOracle returns an Oracle over src with lookahead l for numTrainers
// trainers.
func NewOracle(src BatchSource, l, numTrainers int) *Oracle {
	if l < 1 {
		panic(fmt.Sprintf("core: lookahead must be >= 1, got %d", l))
	}
	if numTrainers < 1 || numTrainers > MaxTrainers {
		panic(fmt.Sprintf("core: trainer count must be in [1, %d], got %d", MaxTrainers, numTrainers))
	}
	o := &Oracle{
		LookAhead:   l,
		NumTrainers: numTrainers,
		src:         src,
		last:        -1,
	}
	o.plans.batches, _ = src.(BatchRecycler)
	o.ids.GrowAtHalf()
	return o
}

// intern returns id's slot, allocating one on the id's first window use.
func (o *Oracle) intern(id uint64) int32 {
	s, added := o.ids.Put(id)
	if added {
		if int(s) == len(o.slots) {
			o.slots = append(o.slots, oracleSlot{})
		}
		o.slots[s] = oracleSlot{owner: uint8(OwnerOf(id, o.NumTrainers))}
	}
	return s
}

// fill tops the window up to LookAhead batches beyond the current front.
func (o *Oracle) fill() {
	for !o.done && len(o.queue) < o.LookAhead {
		b, ok := o.src.Next()
		if !ok {
			o.done = true
			return
		}
		if b.Index <= o.last {
			panic(fmt.Sprintf("core: batch index %d does not follow %d", b.Index, o.last))
		}
		o.last = b.Index
		var w *window
		if n := len(o.spare); n > 0 {
			w = o.spare[n-1]
			o.spare = o.spare[:n-1]
		} else {
			w = new(window)
		}
		w.b = b
		o.epoch++
		var top uint64 // the OR of the distinct ids: the largest one's bit length
		br := &w.rows
		acc, owner, start := br.grow(b), br.owner[:0], br.start[:0]
		uniq, k := w.uniq[:0], 0
		for _, ex := range b.Examples {
			start = append(start, int32(len(owner)))
			for _, id := range ex.Cat {
				s := o.intern(id)
				sl := &o.slots[s]
				if sl.stamp != o.epoch {
					sl.stamp, sl.last, sl.row = o.epoch, b.Index, int32(len(owner))
					uniq = append(uniq, idSlot{id, s, sl.row})
					owner = append(owner, sl.owner)
					top |= id
				}
				acc[k] = sl.row
				k++
			}
		}
		br.owner, br.start = owner, start
		w.uniq, o.radix = SortByID(uniq, o.radix, top, func(u *idSlot) uint64 { return u.id })
		o.queue = append(o.queue, w)
	}
}

// Next runs one step of Algorithm 1 and returns the decision for the next
// batch, or ok=false when the stream is exhausted. The decision's per-id
// slices are new unless a decision was handed back through Recycle, whose
// buffers they then reuse; its Assign is the storage of the plan set Plans
// will cut it into, a recycled one when every plan of an earlier set has
// been handed back.
func (o *Oracle) Next() (*Decision, bool) {
	o.fill()
	if len(o.queue) == 0 {
		return nil, false
	}
	cur := o.queue[0]
	copy(o.queue, o.queue[1:])
	o.queue[len(o.queue)-1] = nil
	o.queue = o.queue[:len(o.queue)-1]

	// Count the batch's ids not resident: they are the prefetch list's
	// exact length.
	misses := 0
	for _, u := range cur.uniq {
		if !o.slots[u.slot].cached {
			misses++
		}
	}
	n := len(cur.uniq)
	d := o.recycled
	o.recycled = nil
	if d == nil {
		d = new(Decision)
	}
	if d.set == nil {
		d.set = o.plans.get()
	}
	h := &d.set.hdr
	if isCommAware(o.Partitioner) {
		h.Assign = o.placer.place(h.Assign, cur.b, &cur.rows, o.NumTrainers)
	} else {
		h.Assign = assignInto(o.Partitioner, h.Assign, cur.b, o.NumTrainers)
	}
	d.Iter, d.Batch, d.Assign = cur.b.Index, cur.b, h.Assign
	d.IDs, d.TTL = slices.Grow(d.IDs[:0], n)[:n], slices.Grow(d.TTL[:0], n)[:n]
	d.Users, d.NeededNext = slices.Grow(d.Users[:0], n)[:n], slices.Grow(d.NeededNext[:0], n)[:n]
	if misses == 0 {
		d.Prefetch = nil // an empty list stays nil, as appending to nil left it
	} else {
		d.Prefetch = slices.Grow(d.Prefetch[:0], misses)
	}
	o.users = slices.Grow(o.users[:0], n)[:n]
	clear(o.users)
	k := 0
	for i, ex := range cur.b.Examples {
		bit := Ranks(1) << uint(d.Assign[i])
		for range ex.Cat {
			o.users[cur.rows.acc[k]] |= bit
			k++
		}
	}
	o.epoch++
	if len(o.queue) > 0 {
		for _, u := range o.queue[0].uniq {
			o.slots[u.slot].stamp = o.epoch
		}
	}
	for j, u := range cur.uniq {
		sl := &o.slots[u.slot]
		d.IDs[j], d.TTL[j], d.Users[j] = u.id, sl.last, o.users[u.row]
		d.NeededNext[j] = sl.last != d.Iter && sl.stamp == o.epoch
		if !sl.cached {
			d.Prefetch = append(d.Prefetch, u.id)
			sl.cached = true
			o.cached++
		}
		if sl.last == d.Iter {
			sl.cached = false
			o.cached--
			o.ids.Delete(u.id)
		}
	}
	if o.cached > o.peak {
		o.peak = o.cached
	}
	cur.b = nil
	o.spare = append(o.spare, cur)
	return d, true
}

// Recycle hands d back for Next to reuse its IDs, TTL, Users, NeededNext
// and Prefetch buffers, and its plan set if Plans did not cut it. d must be
// a decision of this oracle whose Stats, needed-next count and Plans are
// done: after Recycle nothing may read d, and the next Next overwrites it.
// Plans made from d stay valid, because they share only the slim
// Iter/Batch/Assign header, never d. A caller that never recycles gets
// fresh slices from every Next.
func (o *Oracle) Recycle(d *Decision) {
	d.Batch, d.Assign = nil, nil
	o.recycled = d
}

// CacheOccupancy returns the oracle's current view of cached rows.
func (o *Oracle) CacheOccupancy() int { return o.cached }

// PeakOccupancy returns the maximum cache occupancy seen so far; with the
// row width this gives the cache size requirement Table 3 reports per ℒ.
func (o *Oracle) PeakOccupancy() int { return o.peak }

// EstimateLookahead simulates the startup procedure of §4 ("Automatically
// Calculating Lookahead"): keep extending the window until the cache-size
// budget (in rows) is reached, and return the number of batches that fit.
func EstimateLookahead(gen *data.Generator, batchSize, maxRows, maxL int) int {
	latest := make(map[uint64]struct{})
	for l := 0; l < maxL; l++ {
		b := gen.Batch(l, batchSize)
		for _, id := range b.UniqueIDs() {
			latest[id] = struct{}{}
		}
		if len(latest) > maxRows {
			return l // the batch that overflowed doesn't fit
		}
	}
	return maxL
}
