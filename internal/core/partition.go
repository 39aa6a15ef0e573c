package core

import (
	"fmt"
	"slices"
	"sort"

	"bagpipe/internal/data"
)

// Partitioner assigns each example in a batch to one of p trainers.
type Partitioner interface {
	// Assign returns, for each example index, the trainer that processes
	// it. Implementations must keep the load balanced: every trainer gets
	// ⌈b/p⌉ or ⌊b/p⌋ examples (constraint (ii) of the paper's MILP).
	Assign(b *data.Batch, p int) []int
	// Name identifies the partitioner in experiment output.
	Name() string
}

// assignInto is part's Assign, into dst's storage when part can fill it in
// place.
func assignInto(part Partitioner, dst []int, b *data.Batch, p int) []int {
	if in, ok := part.(interface {
		AssignInto(dst []int, b *data.Batch, p int) []int
	}); ok {
		return in.AssignInto(dst, b, p)
	}
	return part.Assign(b, p)
}

// Contiguous splits the batch into p equal contiguous chunks — Bagpipe's
// default data-parallel partitioning.
type Contiguous struct{}

// Name implements Partitioner.
func (Contiguous) Name() string { return "contiguous" }

// Assign implements Partitioner.
func (c Contiguous) Assign(b *data.Batch, p int) []int { return c.AssignInto(nil, b, p) }

// AssignInto is Assign into dst's storage.
func (Contiguous) AssignInto(dst []int, b *data.Batch, p int) []int {
	n := b.Size()
	out := slices.Grow(dst[:0], n)[:n]
	for i := range out {
		out[i] = i * p / n
		if out[i] >= p {
			out[i] = p - 1
		}
	}
	return out
}

// RoundRobin deals examples to trainers cyclically — the "Partitioned
// Random" configuration of Figure 7.
type RoundRobin struct{}

// Name implements Partitioner.
func (RoundRobin) Name() string { return "roundrobin" }

// Assign implements Partitioner.
func (r RoundRobin) Assign(b *data.Batch, p int) []int { return r.AssignInto(nil, b, p) }

// AssignInto is Assign into dst's storage.
func (RoundRobin) AssignInto(dst []int, b *data.Batch, p int) []int {
	out := slices.Grow(dst[:0], b.Size())[:b.Size()]
	for i := range out {
		out[i] = i % p
	}
	return out
}

// Ownership maps embedding IDs to the trainer whose partitioned cache owns
// them, the state the communication-aware partitioner minimizes against.
type Ownership map[uint64]int

// OwnerOf is the canonical hash ownership of the LRPP cache: id belongs to
// trainer id % p. It is total — every id has an owner — which is what the
// partitioned cache requires: rows that first appear beyond the lookahead
// window still land in exactly one partition.
func OwnerOf(id uint64, p int) int {
	if p <= 0 {
		panic(fmt.Sprintf("core: OwnerOf with %d trainers", p))
	}
	return int(id % uint64(p))
}

// GroupByOwner partitions the positions 0..len(ids)-1 into contiguous
// per-owner runs using a counting sort: the returned pos holds every index
// grouped by its owning partition OwnerOf(id, n), and bounds[o]..bounds[o+1]
// delimits owner o's run. The owner of each id is computed once (the modulo
// is not free at these call rates) and replayed from a scratch array on the
// placement pass. This is the one grouping primitive behind both halves of
// the system's hash sharding: the embedding server's shard-grouped
// fetch/write paths and the sharded tier client's scatter.
func GroupByOwner(ids []uint64, n int) (pos []int, bounds []int) {
	var g GroupScratch
	return g.GroupByOwner(ids, n)
}

// GroupScratch holds the counting-sort work arrays of GroupByOwner so a
// caller that groups every batch (the sharded tier's scatter, the embedding
// server's shard split) reuses them instead of reallocating four slices per
// call. The returned pos/bounds alias the scratch: they are valid until the
// next GroupByOwner call on the same scratch, and a scratch must not be
// shared by concurrent callers (pool per call site instead).
type GroupScratch struct {
	owner  []int32
	counts []int
	pos    []int
	bounds []int
}

// GroupByOwner is the scratch-reusing form of the package-level
// GroupByOwner; see that function for the grouping contract.
func (g *GroupScratch) GroupByOwner(ids []uint64, n int) (pos []int, bounds []int) {
	return g.GroupByKey(ids, n, func(id uint64) int { return int(id % uint64(n)) })
}

// GroupByKey is GroupByOwner with each id's partition named by key, which
// must map into [0, n): the sharded tier groups a pass by its routing
// table's read rings and write pairs this way.
func (g *GroupScratch) GroupByKey(ids []uint64, n int, key func(uint64) int) (pos []int, bounds []int) {
	if n <= 0 {
		panic(fmt.Sprintf("core: grouping into %d partitions", n))
	}
	if cap(g.owner) < len(ids) {
		g.owner = make([]int32, len(ids))
		g.pos = make([]int, len(ids))
	}
	if cap(g.counts) < n+1 {
		g.counts = make([]int, n+1)
		g.bounds = make([]int, n+1)
	}
	owner, counts := g.owner[:len(ids)], g.counts[:n+1]
	for o := range counts {
		counts[o] = 0
	}
	for i, id := range ids {
		o := int32(key(id))
		owner[i] = o
		counts[o+1]++
	}
	for o := 0; o < n; o++ {
		counts[o+1] += counts[o]
	}
	bounds = g.bounds[:n+1]
	copy(bounds, counts)
	pos = g.pos[:len(ids)]
	for i := range ids {
		o := owner[i]
		pos[counts[o]] = i
		counts[o]++
	}
	return pos, bounds
}

// Owner resolves id's owning trainer. IDs absent from the map — ids never
// seen in the lookahead window the map was built from — fall back to the
// hash ownership OwnerOf, so ownership is always defined and agrees with
// where the LRPP cache will actually place the row. (Before this fallback
// existed, an unseen id's ownership fell through undefined: CommAware
// charged it as a transfer against every trainer and the cost model
// disagreed with the cache's real placement.)
func (o Ownership) Owner(id uint64, p int) int {
	if t, ok := o[id]; ok {
		return t
	}
	return OwnerOf(id, p)
}

// CommAware approximates the paper's MILP: place each example on the
// trainer that already owns the most of its embeddings, subject to the
// balance constraint. The paper solves this exactly with Gurobi and finds
// it takes ~2.36 s per 16k batch — far too slow for ~100 ms iterations —
// so Bagpipe never uses it in production; it exists to reproduce the
// Figure 7 byte counts. This greedy pass processes examples in order of
// decreasing placement benefit, which is within a few percent of the exact
// optimum on instances small enough to solve exactly (see tests).
type CommAware struct {
	Own Ownership
}

// Name implements Partitioner.
func (c *CommAware) Name() string { return "comm-aware" }

// Assign implements Partitioner.
func (c *CommAware) Assign(b *data.Batch, p int) []int {
	n := b.Size()
	capPer := (n + p - 1) / p
	// cost[i][j] = embeddings of example i NOT owned by trainer j
	type cand struct {
		example int
		best    int // best trainer
		gain    int // cost of worst placement − cost of best placement
		costs   []int
	}
	cands := make([]cand, n)
	for i, ex := range b.Examples {
		costs := make([]int, p)
		for _, id := range ex.Cat {
			owner := c.Own.Owner(id, p)
			for j := 0; j < p; j++ {
				if owner != j {
					costs[j]++
				}
			}
		}
		best, worst := 0, 0
		for j := 1; j < p; j++ {
			if costs[j] < costs[best] {
				best = j
			}
			if costs[j] > costs[worst] {
				worst = j
			}
		}
		cands[i] = cand{example: i, best: best, gain: costs[worst] - costs[best], costs: costs}
	}
	// Greedy: biggest-gain examples choose first.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	load := make([]int, p)
	out := make([]int, n)
	for _, cd := range cands {
		// pick the cheapest trainer with remaining capacity
		best := -1
		for j := 0; j < p; j++ {
			if load[j] >= capPer {
				continue
			}
			if best == -1 || cd.costs[j] < cd.costs[best] ||
				(cd.costs[j] == cd.costs[best] && load[j] < load[best]) {
				best = j
			}
		}
		out[cd.example] = best
		load[best]++
	}
	return out
}

// AssignmentCommCost returns the number of embedding-row transfers the
// assignment of a batch across p trainers incurs against the ownership map:
// for each example, rows not owned by its trainer must be fetched (and
// written back), counted once per (id, trainer) pair as a partitioned cache
// would batch them. Ownership of ids absent from the map resolves through
// the same hash fallback the LRPP cache uses.
func AssignmentCommCost(b *data.Batch, assign []int, p int, own Ownership) int {
	type key struct {
		id uint64
		t  int
	}
	need := make(map[key]struct{})
	for i, ex := range b.Examples {
		t := assign[i]
		for _, id := range ex.Cat {
			if own.Owner(id, p) != t {
				need[key{id, t}] = struct{}{}
			}
		}
	}
	return len(need)
}
