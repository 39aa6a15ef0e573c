package core

import "math/bits"

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
	// updating the row.
	Owned      []uint64
	OwnedTTL   []int
	OwnedUsers []Ranks

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
// plan. A counting pass sizes every list first, so each is allocated once.
func (d *Decision) Plans(p int) []*Plan {
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
	n := make([]int, p*w)
	for _, id := range d.Prefetch {
		n[OwnerOf(id, p)*w+nPrefetch]++
	}
	for k, id := range d.IDs {
		o := OwnerOf(id, p)
		n[o*w+nOwned]++
		if d.TTL[k] == d.Iter {
			n[o*w+nExpiring]++
		}
		for others := d.Users[k] &^ (1 << uint(o)); others != 0; others &= others - 1 {
			u := bits.TrailingZeros64(uint64(others))
			n[o*w+nFixed+u]++
			n[u*w+nRemote]++
		}
	}
	hdr := &Decision{Iter: d.Iter, Batch: d.Batch, Assign: d.Assign}
	plans := make([]*Plan, p)
	for t := range plans {
		c := n[t*w : (t+1)*w]
		pl := &Plan{
			Trainer:     t,
			Dec:         hdr,
			Owned:       make([]uint64, 0, c[nOwned]),
			OwnedTTL:    make([]int, 0, c[nOwned]),
			OwnedUsers:  make([]Ranks, 0, c[nOwned]),
			Prefetch:    sized[uint64](c[nPrefetch]),
			Expiring:    sized[uint64](c[nExpiring]),
			ReplicaOut:  make([][]uint64, p),
			Remote:      sized[uint64](c[nRemote]),
			RemoteOwner: sized[int](c[nRemote]),
			RemoteNext:  sized[bool](c[nRemote]),
		}
		for u := range pl.ReplicaOut {
			pl.ReplicaOut[u] = sized[uint64](c[nFixed+u])
		}
		plans[t] = pl
	}
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

// sized returns an empty list with capacity n, nil when n is 0: an empty
// list stays nil, as appending to nil left it.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
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
