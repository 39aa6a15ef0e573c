package core

import (
	"testing"

	"bagpipe/internal/data"
	"bagpipe/internal/tensor"
)

// planOracle runs an oracle over a random stream and hands every decision
// to fn.
func planOracle(t *testing.T, seed uint64, batches, batchSize, lookahead, p int, fn func(*Decision)) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	var bs []*data.Batch
	for i := 0; i < batches; i++ {
		b := randomBatch(rng, batchSize, 3, 40)
		b.Index = i
		bs = append(bs, b)
	}
	o := NewOracle(&SliceSource{Batches: bs}, lookahead, p)
	for {
		d, ok := o.Next()
		if !ok {
			return
		}
		fn(d)
	}
}

func TestSplitPlansPartitionDecision(t *testing.T) {
	const p = 3
	planOracle(t, 9, 12, 8, 4, p, func(d *Decision) {
		plans := d.SplitPlans(p)
		// Prefetch sets partition d.Prefetch disjointly by hash owner.
		var gotPrefetch []uint64
		for tr, pl := range plans {
			if pl.Trainer != tr {
				t.Fatalf("plan %d labeled %d", tr, pl.Trainer)
			}
			for _, id := range pl.Prefetch {
				if OwnerOf(id, p) != tr {
					t.Fatalf("iter %d: trainer %d prefetches foreign id %d", d.Iter, tr, id)
				}
				gotPrefetch = append(gotPrefetch, id)
			}
			for id, ttl := range pl.OwnedTTL {
				if OwnerOf(id, p) != tr {
					t.Fatalf("iter %d: trainer %d owns foreign ttl id %d", d.Iter, tr, id)
				}
				if want := ttlOf(d, id); ttl != want {
					t.Fatalf("iter %d id %d: plan ttl %d decision ttl %d", d.Iter, id, ttl, want)
				}
			}
			for _, id := range pl.Expiring {
				if ttlOf(d, id) != d.Iter {
					t.Fatalf("iter %d: id %d marked expiring with ttl %d", d.Iter, id, ttlOf(d, id))
				}
			}
		}
		sortU64(gotPrefetch)
		if len(gotPrefetch) != len(d.Prefetch) {
			t.Fatalf("iter %d: plans carry %d prefetches, decision %d", d.Iter, len(gotPrefetch), len(d.Prefetch))
		}
		for i, id := range gotPrefetch {
			if d.Prefetch[i] != id {
				t.Fatalf("iter %d: prefetch mismatch at %d", d.Iter, i)
			}
		}
		// TTL keys partition the decision's ids.
		total := 0
		for _, pl := range plans {
			total += len(pl.OwnedTTL)
		}
		if total != len(d.IDs) {
			t.Fatalf("iter %d: plans cover %d ttl ids, decision %d", d.Iter, total, len(d.IDs))
		}
	})
}

func TestSplitPlansReplicaAndSyncRouting(t *testing.T) {
	const p = 2
	planOracle(t, 11, 10, 10, 3, p, func(d *Decision) {
		plans := d.SplitPlans(p)
		for k, id := range d.IDs {
			users := d.Users[k].List()
			o := OwnerOf(id, p)
			got := plans[o].Users[id]
			if len(got) != len(users) {
				t.Fatalf("iter %d id %d: owner users %v want %v", d.Iter, id, got, users)
			}
			for _, u := range users {
				if u == o {
					continue
				}
				// Owner must push a replica to every non-owner user...
				found := false
				for _, rid := range plans[o].ReplicaOut[u] {
					if rid == id {
						found = true
					}
				}
				if !found {
					t.Fatalf("iter %d: owner %d does not push id %d to user %d", d.Iter, o, id, u)
				}
				// ...and the user must route its contribution back.
				if plans[u].Remote[id] != o {
					t.Fatalf("iter %d: user %d routes id %d to %d want %d", d.Iter, u, id, plans[u].Remote[id], o)
				}
				inFrom := false
				for _, fo := range plans[u].ReplicaFrom {
					if fo == o {
						inFrom = true
					}
				}
				if !inFrom {
					t.Fatalf("iter %d: user %d does not expect replicas from owner %d", d.Iter, u, o)
				}
			}
		}
		// No plan may expect replicas of rows it owns.
		for tr, pl := range plans {
			for id := range pl.Remote {
				if OwnerOf(id, p) == tr {
					t.Fatalf("iter %d: trainer %d lists owned id %d as remote", d.Iter, tr, id)
				}
			}
		}
	})
}

func TestCacheRemove(t *testing.T) {
	c := NewCache(2)
	c.Insert(1, []float32{1, 2}, 5)
	c.Insert(2, []float32{3, 4}, 5)
	e, _ := c.Peek(2)
	e.Dirty = true
	if _, dirty := c.Remove(1); dirty {
		t.Fatal("clean row reported dirty")
	}
	ev, dirty := c.Remove(2)
	if !dirty || ev.ID != 2 || ev.Row[0] != 3 {
		t.Fatalf("dirty removal wrong: %+v %v", ev, dirty)
	}
	if _, ok := c.Remove(2); ok {
		t.Fatal("double remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("cache not empty: %d", c.Len())
	}
	_, _, evicted := c.Counters()
	if evicted != 2 {
		t.Fatalf("evicted counter %d want 2", evicted)
	}
}
