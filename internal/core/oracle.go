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
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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

// GeneratorSource adapts a data.Generator to a BatchSource over a fixed
// range of iterations.
type GeneratorSource struct {
	Gen       *data.Generator
	BatchSize int
	NextIndex int
	Limit     int // exclusive upper bound on batch index
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
	b := g.Gen.Batch(g.NextIndex, g.BatchSize)
	g.NextIndex++
	return b, true
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
}

// EvictAfter returns the IDs whose TTL expires at this iteration, sorted.
func (d *Decision) EvictAfter() []uint64 {
	var ids []uint64
	for k, id := range d.IDs {
		if d.TTL[k] == d.Iter {
			ids = append(ids, id)
		}
	}
	return ids
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
// window use has been decided; slots recycle through a free list, so their
// number is bounded by the distinct ids of one window. Everything Next
// computes per id — last use, residency, the users of the current batch,
// membership of the next batch — is a field of that slot, so the id → slot
// table is the only map the walk consults.
type Oracle struct {
	// LookAhead is ℒ: the size of the inspection window in batches,
	// counting the current batch, exactly as in Algorithm 1's
	// BatchQueue.size() < LookAheadValue bound and the Figure 6 worked
	// example (the paper's default is 200). The oracle therefore sees
	// ℒ−1 batches beyond the one being dispatched.
	LookAhead int
	// NumTrainers is the trainer count used for LRPP annotations.
	NumTrainers int
	// Partitioner assigns batch examples to trainers; nil means contiguous
	// equal chunks (Bagpipe's default).
	Partitioner Partitioner

	src   BatchSource
	queue []*window
	spare []*window // recycled window buffers
	done  bool
	last  int // index of the newest batch in the window (-1 before the first)

	slotOf map[uint64]int32
	slots  []oracleSlot
	free   []int32
	epoch  uint32 // stamp generator: every fill and every Next draws a fresh one

	cached int // ids the oracle considers resident (Algorithm 1's InCache)
	peak   int
}

// oracleSlot is one interned id's state.
type oracleSlot struct {
	id     uint64
	last   int    // newest window batch using the id: its TTL
	users  Ranks  // trainers touching it in the batch being decided
	stamp  uint32 // epoch of the last fill or next-batch mark that saw it
	cached bool
}

// window is one queued batch with its accesses resolved to slots.
type window struct {
	b    *data.Batch
	acc  []int32  // slot of every categorical access, example-major
	uniq []idSlot // the batch's distinct ids, ascending
}

type idSlot struct {
	id   uint64
	slot int32
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
	return &Oracle{
		LookAhead:   l,
		NumTrainers: numTrainers,
		src:         src,
		last:        -1,
		slotOf:      make(map[uint64]int32),
	}
}

// intern returns id's slot, allocating one on the id's first window use.
func (o *Oracle) intern(id uint64) int32 {
	if s, ok := o.slotOf[id]; ok {
		return s
	}
	var s int32
	if n := len(o.free); n > 0 {
		s = o.free[n-1]
		o.free = o.free[:n-1]
	} else {
		s = int32(len(o.slots))
		o.slots = append(o.slots, oracleSlot{})
	}
	o.slots[s] = oracleSlot{id: id}
	o.slotOf[id] = s
	return s
}

// release recycles a slot whose last window use has been decided.
func (o *Oracle) release(s int32) {
	delete(o.slotOf, o.slots[s].id)
	o.free = append(o.free, s)
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
		w.b, w.acc, w.uniq = b, w.acc[:0], w.uniq[:0]
		o.epoch++
		for _, ex := range b.Examples {
			for _, id := range ex.Cat {
				s := o.intern(id)
				w.acc = append(w.acc, s)
				if sl := &o.slots[s]; sl.stamp != o.epoch {
					sl.stamp = o.epoch
					sl.last = b.Index
					w.uniq = append(w.uniq, idSlot{id, s})
				}
			}
		}
		slices.SortFunc(w.uniq, func(a, b idSlot) int { return cmp.Compare(a.id, b.id) })
		o.queue = append(o.queue, w)
	}
}

// Next runs one step of Algorithm 1 and returns the decision for the next
// batch, or ok=false when the stream is exhausted.
func (o *Oracle) Next() (*Decision, bool) {
	o.fill()
	if len(o.queue) == 0 {
		return nil, false
	}
	cur := o.queue[0]
	copy(o.queue, o.queue[1:])
	o.queue[len(o.queue)-1] = nil
	o.queue = o.queue[:len(o.queue)-1]

	p := o.Partitioner
	if p == nil {
		p = Contiguous{}
	}
	n := len(cur.uniq)
	d := &Decision{
		Iter:       cur.b.Index,
		Batch:      cur.b,
		Assign:     p.Assign(cur.b, o.NumTrainers),
		IDs:        make([]uint64, n),
		TTL:        make([]int, n),
		Users:      make([]Ranks, n),
		NeededNext: make([]bool, n),
	}
	for _, u := range cur.uniq {
		o.slots[u.slot].users = 0
	}
	k := 0
	for i, ex := range cur.b.Examples {
		bit := Ranks(1) << uint(d.Assign[i])
		for range ex.Cat {
			o.slots[cur.acc[k]].users |= bit
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
		d.IDs[j], d.TTL[j], d.Users[j] = u.id, sl.last, sl.users
		if !sl.cached {
			d.Prefetch = append(d.Prefetch, u.id)
			sl.cached = true
			o.cached++
		}
		if sl.last == d.Iter {
			sl.cached = false
			o.cached--
			o.release(u.slot)
		} else if sl.stamp == o.epoch {
			d.NeededNext[j] = true
		}
	}
	if o.cached > o.peak {
		o.peak = o.cached
	}
	cur.b = nil
	o.spare = append(o.spare, cur)
	return d, true
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
