package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/tensor"
)

// This file keeps the map-based Oracle Cacher the flat one replaced, as the
// reference TestFlatOracleMatchesReference and FuzzOracleMatchesReference
// hold it to: Algorithm 1 written with one Go map per fact (last use,
// residency, users per id, next-batch membership) and the per-trainer
// split written with one map per plan field.

// refDecision is a Decision with its per-id facts as maps.
type refDecision struct {
	Iter       int
	Batch      *data.Batch
	Prefetch   []uint64
	TTL        map[uint64]int
	Assign     []int
	UsedBy     map[uint64][]int
	NeededNext map[uint64]bool
}

// refOracle is the map-based Oracle.
type refOracle struct {
	LookAhead   int
	NumTrainers int
	Partitioner Partitioner

	src     BatchSource
	queue   []*data.Batch
	uniques map[int][]uint64 // batch index → unique IDs (computed once)
	latest  map[uint64]int
	inCache map[uint64]struct{}
	done    bool
	peak    int
}

func newRefOracle(src BatchSource, l, numTrainers int) *refOracle {
	return &refOracle{
		LookAhead:   l,
		NumTrainers: numTrainers,
		src:         src,
		uniques:     make(map[int][]uint64),
		latest:      make(map[uint64]int),
		inCache:     make(map[uint64]struct{}),
	}
}

func (o *refOracle) fill() {
	for !o.done && len(o.queue) < o.LookAhead {
		b, ok := o.src.Next()
		if !ok {
			o.done = true
			return
		}
		ids := b.UniqueIDs()
		o.uniques[b.Index] = ids
		for _, id := range ids {
			o.latest[id] = b.Index
		}
		o.queue = append(o.queue, b)
	}
}

func (o *refOracle) Next() (*refDecision, bool) {
	o.fill()
	if len(o.queue) == 0 {
		return nil, false
	}
	cur := o.queue[0]
	o.queue = o.queue[1:]
	ids := o.uniques[cur.Index]
	delete(o.uniques, cur.Index)

	d := &refDecision{
		Iter:  cur.Index,
		Batch: cur,
		TTL:   make(map[uint64]int, len(ids)),
	}
	for _, id := range ids {
		ttl := o.latest[id]
		d.TTL[id] = ttl
		if _, cached := o.inCache[id]; !cached {
			d.Prefetch = append(d.Prefetch, id)
			o.inCache[id] = struct{}{}
		}
		if ttl == cur.Index {
			delete(o.inCache, id)
			delete(o.latest, id)
		}
	}
	sortU64(d.Prefetch)
	if len(o.inCache) > o.peak {
		o.peak = len(o.inCache)
	}

	p := o.Partitioner
	if p == nil {
		p = DefaultPartitioner
	}
	d.Assign = p.Assign(d.Batch, o.NumTrainers)
	d.UsedBy = usedBy(d.Batch, d.Assign)
	d.NeededNext = make(map[uint64]bool)
	if len(o.queue) > 0 {
		next := o.uniques[o.queue[0].Index]
		nextSet := make(map[uint64]struct{}, len(next))
		for _, id := range next {
			nextSet[id] = struct{}{}
		}
		for id, ttl := range d.TTL {
			if ttl > d.Iter {
				if _, ok := nextSet[id]; ok {
					d.NeededNext[id] = true
				}
			}
		}
	}
	return d, true
}

// usedBy returns, for each unique embedding ID in b, the sorted set of
// trainers whose assigned examples touch it.
func usedBy(b *data.Batch, assign []int) map[uint64][]int {
	m := make(map[uint64]map[int]struct{})
	for i, ex := range b.Examples {
		t := assign[i]
		for _, id := range ex.Cat {
			s, ok := m[id]
			if !ok {
				s = make(map[int]struct{}, 2)
				m[id] = s
			}
			s[t] = struct{}{}
		}
	}
	out := make(map[uint64][]int, len(m))
	for id, s := range m {
		ts := make([]int, 0, len(s))
		for t := range s {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		out[id] = ts
	}
	return out
}

// refSplitPlans slices a reference decision into p map-typed plans.
func (d *refDecision) refSplitPlans(p int) []*TrainerPlan {
	plans := make([]*TrainerPlan, p)
	for t := range plans {
		plans[t] = &TrainerPlan{
			Trainer:    t,
			OwnedTTL:   make(map[uint64]int),
			Users:      make(map[uint64][]int),
			ReplicaOut: make(map[int][]uint64),
			Remote:     make(map[uint64]int),
		}
	}
	for _, id := range d.Prefetch { // stays sorted: d.Prefetch is sorted
		o := OwnerOf(id, p)
		plans[o].Prefetch = append(plans[o].Prefetch, id)
	}
	for id, ttl := range d.TTL {
		o := OwnerOf(id, p)
		plans[o].OwnedTTL[id] = ttl
		if ttl == d.Iter {
			plans[o].Expiring = append(plans[o].Expiring, id)
		}
	}
	for id, users := range d.UsedBy {
		o := OwnerOf(id, p)
		plans[o].Users[id] = users
		for _, u := range users {
			if u != o {
				plans[o].ReplicaOut[u] = append(plans[o].ReplicaOut[u], id)
				plans[u].Remote[id] = o
			}
		}
	}
	for _, pl := range plans {
		sortU64(pl.Expiring)
		for _, ids := range pl.ReplicaOut {
			sortU64(ids)
		}
		seen := make(map[int]bool)
		for _, o := range pl.Remote {
			if !seen[o] {
				seen[o] = true
				pl.ReplicaFrom = append(pl.ReplicaFrom, o)
			}
		}
		sort.Ints(pl.ReplicaFrom)
	}
	return plans
}

func sortU64(ids []uint64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// matchReference runs the flat oracle and the reference over the same
// batches and fails at the first decision, per-trainer plan or occupancy
// figure on which they differ. It recycles every other decision, so the
// reused buffers answer to the reference too.
func matchReference(t *testing.T, batches []*data.Batch, l, p int, part Partitioner) {
	t.Helper()
	flat := NewOracle(&SliceSource{Batches: batches}, l, p)
	ref := newRefOracle(&SliceSource{Batches: batches}, l, p)
	flat.Partitioner, ref.Partitioner = part, part
	for n := 0; ; n++ {
		d, ok := flat.Next()
		r, rok := ref.Next()
		if ok != rok {
			t.Fatalf("decision %d: flat ok=%v, reference ok=%v", n, ok, rok)
		}
		if !ok {
			break
		}
		if err := sameDecision(d, r, p); err != nil {
			t.Fatalf("L=%d P=%d %s, iter %d: %v", l, p, partName(part), d.Iter, err)
		}
		if flat.CacheOccupancy() != len(ref.inCache) {
			t.Fatalf("iter %d: occupancy %d, reference %d", d.Iter, flat.CacheOccupancy(), len(ref.inCache))
		}
		if n%2 == 1 {
			flat.Recycle(d)
		}
	}
	if flat.PeakOccupancy() != ref.peak {
		t.Fatalf("peak occupancy %d, reference %d", flat.PeakOccupancy(), ref.peak)
	}
	if flat.ids.n != 0 || len(flat.ids.free) != len(flat.slots) {
		t.Fatalf("%d ids still interned, %d of %d slots free after the stream", flat.ids.n, len(flat.ids.free), len(flat.slots))
	}
}

func partName(p Partitioner) string {
	if p == nil {
		return "default"
	}
	return p.Name()
}

// sameDecision compares a flat decision and its plans with the reference
// decision and its map plans, field by field.
func sameDecision(d *Decision, r *refDecision, p int) error {
	if d.Iter != r.Iter || d.Batch != r.Batch {
		return fmt.Errorf("decides iter %d, reference %d", d.Iter, r.Iter)
	}
	if !reflect.DeepEqual(d.Prefetch, r.Prefetch) {
		return fmt.Errorf("prefetch %v, reference %v", d.Prefetch, r.Prefetch)
	}
	if !slices.Equal(d.Assign, r.Assign) {
		return fmt.Errorf("assign %v, reference %v", d.Assign, r.Assign)
	}
	n := len(d.IDs)
	if len(d.TTL) != n || len(d.Users) != n || len(d.NeededNext) != n || n != len(r.TTL) {
		return fmt.Errorf("parallel slices %d/%d/%d/%d for %d reference ids", n, len(d.TTL), len(d.Users), len(d.NeededNext), len(r.TTL))
	}
	needed := 0
	for k, id := range d.IDs {
		if k > 0 && d.IDs[k-1] >= id {
			return fmt.Errorf("ids not strictly ascending at %d", k)
		}
		if ttl, ok := r.TTL[id]; !ok || ttl != d.TTL[k] {
			return fmt.Errorf("id %d: ttl %d, reference %d (present %v)", id, d.TTL[k], ttl, ok)
		}
		if got := d.Users[k].List(); !slices.Equal(got, r.UsedBy[id]) {
			return fmt.Errorf("id %d: users %v, reference %v", id, got, r.UsedBy[id])
		}
		if d.NeededNext[k] != r.NeededNext[id] {
			return fmt.Errorf("id %d: needed-next %v, reference %v", id, d.NeededNext[k], r.NeededNext[id])
		}
		if d.NeededNext[k] {
			needed++
		}
	}
	if needed != len(r.NeededNext) {
		return fmt.Errorf("%d needed-next ids, reference %d", needed, len(r.NeededNext))
	}

	flat, maps, refs := d.Plans(p), d.SplitPlans(p), r.refSplitPlans(p)
	for tr := 0; tr < p; tr++ {
		pl := flat[tr]
		if pl.Trainer != tr || pl.Dec != flat[0].Dec || len(pl.ReplicaOut) != p {
			return fmt.Errorf("trainer %d: plan header trainer %d, %d replica lists", tr, pl.Trainer, len(pl.ReplicaOut))
		}
		// The shared header carries the decision's batch and assignment and
		// none of its per-id slices.
		if h := pl.Dec; h == d || h.Iter != d.Iter || h.Batch != d.Batch || !slices.Equal(h.Assign, d.Assign) ||
			h.IDs != nil || h.TTL != nil || h.Users != nil || h.NeededNext != nil || h.Prefetch != nil {
			return fmt.Errorf("trainer %d: plan header %+v is not the decision's slim header", tr, *h)
		}
		for _, ids := range append([][]uint64{pl.Owned, pl.Prefetch, pl.Expiring, pl.Remote}, pl.ReplicaOut...) {
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				return fmt.Errorf("trainer %d: id list %v not strictly ascending", tr, ids)
			}
		}
		if len(pl.OwnedTTL) != len(pl.Owned) || len(pl.OwnedUsers) != len(pl.Owned) || len(pl.OwnedNext) != len(pl.Owned) ||
			len(pl.RemoteOwner) != len(pl.Remote) || len(pl.RemoteNext) != len(pl.Remote) {
			return fmt.Errorf("trainer %d: parallel slice lengths differ", tr)
		}
		for k, id := range pl.Owned {
			if pl.OwnedNext[k] != r.NeededNext[id] {
				return fmt.Errorf("trainer %d: owned id %d needed-next %v, reference %v", tr, id, pl.OwnedNext[k], r.NeededNext[id])
			}
		}
		for k, id := range pl.Remote {
			if pl.RemoteNext[k] != r.NeededNext[id] {
				return fmt.Errorf("trainer %d: remote id %d needed-next %v, reference %v", tr, id, pl.RemoteNext[k], r.NeededNext[id])
			}
		}
		// The map adapter covers the owned, prefetch, expiring, replica-out,
		// remote and replica-from fields; it builds every map from the flat
		// plan, which the checks above pin as duplicate-free.
		got, want := *maps[tr], *refs[tr]
		if got.Dec != d {
			return fmt.Errorf("trainer %d: adapter plan carries another decision", tr)
		}
		got.Dec = nil
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("trainer %d: plan\n got  %+v\n want %+v", tr, got, want)
		}
	}
	return nil
}

// randomStream is n batches of size ids drawn from [0, vocab), three
// features per example.
func randomStream(seed uint64, n, size int, vocab uint64) []*data.Batch {
	rng := tensor.NewRNG(seed)
	bs := make([]*data.Batch, n)
	for i := range bs {
		bs[i] = randomBatch(rng, size, 3, vocab)
		bs[i].Index = i
	}
	return bs
}

// TestFlatOracleMatchesReference is the equivalent-queries check on the
// planner: the flat oracle and its plans answer every question the
// map-based reference answers, identically, over random streams at every
// small trainer count, window and partitioner, and over the benchmark's
// Criteo-shaped hot-tail and uniform streams at its batch size and window.
func TestFlatOracleMatchesReference(t *testing.T) {
	for p := 1; p <= 4; p++ {
		parts := []Partitioner{Contiguous{}, RoundRobin{}, CommAware{}}
		for _, part := range parts {
			for l := 1; l <= 5; l++ {
				matchReference(t, randomStream(uint64(100*p+l), 14, 8, 40), l, p, part)
			}
		}
	}
	spec := data.CriteoKaggle().Scaled(100)
	for _, s := range []*data.Spec{spec, spec.WithDist(data.Uniform{})} {
		gen := data.NewGenerator(s, 42)
		batches := make([]*data.Batch, 40)
		for i := range batches {
			batches[i] = gen.Batch(i, 256)
		}
		matchReference(t, batches, 32, 2, nil)
	}
}

// FuzzOracleMatchesReference extends the equivalence to fuzzer-chosen
// streams: seed, trainer count, window, batch size and vocabulary (small
// vocabularies re-touch ids across the window constantly).
func FuzzOracleMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint8(8), uint8(40))
	f.Add(uint64(7), uint8(3), uint8(0), uint8(1), uint8(2))
	f.Add(uint64(9), uint8(63), uint8(11), uint8(30), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, pSel, lSel, bSel, vSel uint8) {
		p := 1 + int(pSel)%MaxTrainers
		l := 1 + int(lSel)%12
		size := 1 + int(bSel)%32
		vocab := 1 + uint64(vSel)
		var part Partitioner
		switch seed % 3 {
		case 1:
			part = RoundRobin{}
		case 2:
			part = Contiguous{}
		}
		matchReference(t, randomStream(seed, 3+int(seed%17), size, vocab), l, p, part)
	})
}
