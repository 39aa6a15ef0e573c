package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Plan is one trainer's slice of a Decision under the LRPP (logically
// replicated, physically partitioned) cache: ownership of every id is
// OwnerOf(id, p), the owner's partition holds the only cached copy, and
// non-owners that touch a row are served a replica for the iteration. The
// Oracle Cacher emits one plan per trainer per iteration; together the
// plans partition the decision's prefetch set, TTLs, and eviction set
// disjointly across trainers (§3.3 of the paper).
//
// Every id list is sorted ascending and the Owned* and Remote* slices are
// parallel, so a plan is consumed by walking it in order: no id-keyed map
// is built on either side of the wire.
type Plan struct {
	Trainer int
	// Dec is the iteration's header, shared by its P plans: Iter, Batch
	// and Assign. The decision's per-id slices are not carried; each
	// plan holds its share of them below.
	Dec *Decision

	// Owned lists every id this trainer owns that the batch touches;
	// OwnedTTL[k] is its TTL (the owner refreshes the cached row's TTL from
	// it each iteration — Algorithm 1's TTLUpdateRequests restricted to the
	// partition) and OwnedUsers[k] the trainers whose examples touch it,
	// the contributors the owner collects gradient partials from before
	// updating the row. OwnedNext[k] is whether the next batch reads it,
	// which splits its remote partials into the urgent and the deferred
	// flush exactly as each reader's RemoteNext does.
	Owned      []uint64
	OwnedTTL   []int
	OwnedUsers []Ranks
	OwnedNext  []bool

	// Prefetch is the owned subset of the decision's Prefetch: rows this
	// trainer must fetch from the embedding servers into its partition.
	Prefetch []uint64

	// Expiring lists owned ids whose TTL equals this iteration: after their
	// gradient merge for this iteration completes they are evicted and
	// written back by this trainer, and by no one else.
	Expiring []uint64

	// ReplicaOut[u] lists the owned ids trainer u (≠ Trainer) reads this
	// iteration; the owner pushes it a snapshot of those rows.
	ReplicaOut [][]uint64

	// Remote lists every remote-owned id this trainer's examples touch,
	// RemoteOwner[k] its owner and RemoteNext[k] whether the next batch
	// reads it: gradient partials for these ids are queued to the
	// delayed-sync flusher, critical ones first, rather than applied here.
	Remote      []uint64
	RemoteOwner []int
	RemoteNext  []bool

	// ReplicaFrom is the set of owners this trainer expects replica pushes
	// from this iteration.
	ReplicaFrom Ranks

	set *planSet // the set the plan was cut from, nil when decoded or built
}

// Plans slices the decision into p per-trainer LRPP plans in one pass over
// its ascending ids. Ownership is the total hash partition OwnerOf, so the
// plans partition Prefetch, the TTLs, and the eviction set disjointly — the
// invariant the fuzz harness asserts. p must be the trainer count the
// decision's Users sets were computed for.
//
// The plans share one header, a Decision holding only Iter, Batch and
// Assign: every per-id fact a trainer reads is in its plan, so the
// decision's own per-id slices die with the decision, not with the last
// plan. A counting pass sizes every list first, and the lists of one
// element type are cut from one array.
//
// A decision from Oracle.Next is cut into a plan set the oracle recycles:
// once every plan has been handed back (Plan.Release), the lists, the
// header and its Assign serve a later decision and the batch returns to
// the oracle's source. A caller that never hands a plan back gets fresh
// buffers, as does a second Plans of one decision. The returned slice is
// the set's, valid as long as any of its plans is.
func (d *Decision) Plans(p int) []*Plan {
	s := d.set
	d.set = nil
	if s == nil {
		s = new(planSet)
	}
	return s.cut(d, p)
}

// planSet is one decision's plans and their shared header, with the arrays
// their lists are cut from. The arrays keep their largest size, so a set
// that cycles through an oracle's pool stops allocating once its decisions
// have reached their size.
type planSet struct {
	hdr   Decision
	plans []Plan
	ptrs  []*Plan
	lists [][]uint64 // every plan's ReplicaOut, p per plan
	ids   []uint64
	ints  []int
	ranks []Ranks
	flags []bool
	count []int        // the counting pass
	out   atomic.Int32 // plans not yet handed back
	pool  *planPool    // where the set returns; nil for a decision no oracle made
}

// cut slices d into p plans cut from the set's arrays.
func (s *planSet) cut(d *Decision, p int) []*Plan {
	// n[t*w+f] counts trainer t's list f: the fixed lists below, then its
	// ReplicaOut lists, one per reader.
	const (
		nOwned = iota
		nPrefetch
		nExpiring
		nRemote
		nFixed
	)
	w := nFixed + p
	n := resized(s.count, p*w)
	s.count = n
	clear(n)
	for _, id := range d.Prefetch {
		n[OwnerOf(id, p)*w+nPrefetch]++
	}
	expiring, remote := 0, 0
	for k, id := range d.IDs {
		o := OwnerOf(id, p)
		n[o*w+nOwned]++
		if d.TTL[k] == d.Iter {
			n[o*w+nExpiring]++
			expiring++
		}
		for others := d.Users[k] &^ (1 << uint(o)); others != 0; others &= others - 1 {
			u := bits.TrailingZeros64(uint64(others))
			n[o*w+nFixed+u]++
			n[u*w+nRemote]++
			remote++
		}
	}
	// Every id is owned once; a remote read is one Remote entry and one
	// ReplicaOut entry.
	owned := len(d.IDs)
	s.ids = resized(s.ids, owned+len(d.Prefetch)+expiring+2*remote)
	s.ints = resized(s.ints, owned+remote)
	s.ranks = resized(s.ranks, owned)
	s.flags = resized(s.flags, owned+remote)
	s.plans, s.ptrs, s.lists = resized(s.plans, p), resized(s.ptrs, p), resized(s.lists, p*p)
	s.hdr = Decision{Iter: d.Iter, Batch: d.Batch, Assign: d.Assign}
	s.out.Store(int32(p))
	ids, ints, ranks, flags := s.ids, s.ints, s.ranks, s.flags
	for t := range s.plans {
		c := n[t*w : (t+1)*w]
		pl := &s.plans[t]
		*pl = Plan{
			Trainer:     t,
			Dec:         &s.hdr,
			Owned:       carve(&ids, c[nOwned]),
			OwnedTTL:    carve(&ints, c[nOwned]),
			OwnedUsers:  carve(&ranks, c[nOwned]),
			OwnedNext:   carve(&flags, c[nOwned]),
			Prefetch:    carve(&ids, c[nPrefetch]),
			Expiring:    carve(&ids, c[nExpiring]),
			ReplicaOut:  s.lists[t*p : (t+1)*p : (t+1)*p],
			Remote:      carve(&ids, c[nRemote]),
			RemoteOwner: carve(&ints, c[nRemote]),
			RemoteNext:  carve(&flags, c[nRemote]),
			set:         s,
		}
		for u := range pl.ReplicaOut {
			pl.ReplicaOut[u] = carve(&ids, c[nFixed+u])
		}
		s.ptrs[t] = pl
	}
	plans := s.ptrs
	for _, id := range d.Prefetch {
		pl := plans[OwnerOf(id, p)]
		pl.Prefetch = append(pl.Prefetch, id)
	}
	for k, id := range d.IDs {
		o := OwnerOf(id, p)
		pl := plans[o]
		pl.Owned = append(pl.Owned, id)
		pl.OwnedTTL = append(pl.OwnedTTL, d.TTL[k])
		pl.OwnedUsers = append(pl.OwnedUsers, d.Users[k])
		pl.OwnedNext = append(pl.OwnedNext, d.NeededNext[k])
		if d.TTL[k] == d.Iter {
			pl.Expiring = append(pl.Expiring, id)
		}
		for others := d.Users[k] &^ (1 << uint(o)); others != 0; others &= others - 1 {
			u := bits.TrailingZeros64(uint64(others))
			pl.ReplicaOut[u] = append(pl.ReplicaOut[u], id)
			pu := plans[u]
			pu.Remote = append(pu.Remote, id)
			pu.RemoteOwner = append(pu.RemoteOwner, o)
			pu.RemoteNext = append(pu.RemoteNext, d.NeededNext[k])
			pu.ReplicaFrom |= 1 << uint(o)
		}
	}
	return plans
}

// Release hands the plan back. Once every plan of its set has been handed
// back, the set returns to the oracle that cut it and the batch to the
// oracle's source, so nothing may read the plan, its header or its batch
// after Release: the engine releases a plan once its trainer has routed the
// iteration, and a fabric that encodes a plan releases it once encoded. A
// plan no oracle cut (a decoded or hand-built one) ignores it.
func (pl *Plan) Release() {
	s := pl.set
	if s == nil {
		return
	}
	switch n := s.out.Add(-1); {
	case n == 0:
		s.pool.put(s)
	case n < 0:
		panic(fmt.Sprintf("core: plan %d of iteration %d released twice", pl.Trainer, pl.Dec.Iter))
	}
}

// planPool is an oracle's free list of plan sets. A set returns to it from
// whichever goroutine hands back its last plan, and its batch goes back to
// the source when the source takes batches back.
type planPool struct {
	mu      sync.Mutex
	free    []*planSet
	batches BatchRecycler // nil when the source takes none back
}

// get returns a free set, or a new one of this pool.
func (h *planPool) get() *planSet {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.free); n > 0 {
		s := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		return s
	}
	return &planSet{pool: h}
}

// put takes back a set whose plans have all been handed back.
func (h *planPool) put(s *planSet) {
	if h == nil {
		return
	}
	b := s.hdr.Batch
	s.hdr.Batch = nil
	if b != nil && h.batches != nil {
		h.batches.Recycle(b)
	}
	h.mu.Lock()
	h.free = append(h.free, s)
	h.mu.Unlock()
}

// resized returns buf with length n, reallocated only when it is short.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// carve cuts the next n values off *buf as an empty list with capacity n,
// nil when n is 0 (an empty list stays nil, as appending to nil left it).
func carve[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	xs := (*buf)[:0:n]
	*buf = (*buf)[n:]
	return xs
}

// TrainerPlan is a Plan with its per-id facts as maps. The engine consumes
// Plans; TrainerPlan and SplitPlans remain as an adapter for callers that
// index plans by id.
type TrainerPlan struct {
	Trainer int
	Dec     *Decision

	// Prefetch is Plan.Prefetch, sorted.
	Prefetch []uint64
	// OwnedTTL maps every owned id the batch touches to its TTL.
	OwnedTTL map[uint64]int
	// Expiring is Plan.Expiring, sorted.
	Expiring []uint64
	// Users maps each owned id used this iteration to its sorted users.
	Users map[uint64][]int
	// ReplicaOut maps each other trainer reading owned rows to their sorted
	// ids; trainers reading none are absent.
	ReplicaOut map[int][]uint64
	// Remote maps each remote-owned id this trainer's examples touch to its
	// owner.
	Remote map[uint64]int
	// ReplicaFrom lists the owners this trainer expects replica pushes
	// from this iteration, sorted.
	ReplicaFrom []int
}

// SplitPlans is Plans(p) with every plan converted to a TrainerPlan.
func (d *Decision) SplitPlans(p int) []*TrainerPlan {
	out := make([]*TrainerPlan, p)
	for t, pl := range d.Plans(p) {
		tp := &TrainerPlan{
			Trainer:     t,
			Dec:         d,
			Prefetch:    pl.Prefetch,
			OwnedTTL:    make(map[uint64]int, len(pl.Owned)),
			Expiring:    pl.Expiring,
			Users:       make(map[uint64][]int, len(pl.Owned)),
			ReplicaOut:  make(map[int][]uint64),
			Remote:      make(map[uint64]int, len(pl.Remote)),
			ReplicaFrom: pl.ReplicaFrom.List(),
		}
		for k, id := range pl.Owned {
			tp.OwnedTTL[id] = pl.OwnedTTL[k]
			tp.Users[id] = pl.OwnedUsers[k].List()
		}
		for u, ids := range pl.ReplicaOut {
			if len(ids) > 0 {
				tp.ReplicaOut[u] = ids
			}
		}
		for k, id := range pl.Remote {
			tp.Remote[id] = pl.RemoteOwner[k]
		}
		out[t] = tp
	}
	return out
}
