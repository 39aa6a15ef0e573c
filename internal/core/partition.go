package core

import (
	"fmt"
	"math/bits"
	"slices"

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

// Contiguous splits the batch into p equal contiguous chunks: the paper's
// data-parallel split (the -partitioner hash placement), and the split
// CommAware keeps on every batch where it finds nothing cheaper.
type Contiguous struct{}

// Name implements Partitioner.
func (Contiguous) Name() string { return "contiguous" }

// Assign implements Partitioner.
func (c Contiguous) Assign(b *data.Batch, p int) []int { return c.AssignInto(nil, b, p) }

// AssignInto is Assign into dst's storage.
// Example i goes to trainer ⌊i·p/n⌋, so trainer t's chunk starts at
// ⌈t·n/p⌉: p divisions per batch instead of one per example.
func (Contiguous) AssignInto(dst []int, b *data.Batch, p int) []int {
	n := b.Size()
	out := slices.Grow(dst[:0], n)[:n]
	lo := 0
	for t := range p {
		hi := ((t+1)*n + p - 1) / p
		for i := lo; i < hi; i++ {
			out[i] = t
		}
		lo = hi
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

// OwnerOf is the canonical hash ownership of the LRPP cache: id belongs to
// trainer id % p. It is total — every id has an owner — which is what the
// partitioned cache requires: rows that first appear beyond the lookahead
// window still land in exactly one partition.
//
// The oracle asks it once per new id and twice per id of every plan set,
// so for the ids below 2^32 and the trainer counts that occur it takes
// the remainder by two multiplications (Lemire's fastmod) instead of a
// 64-bit division.
func OwnerOf(id uint64, p int) int {
	if uint(p-1) < MaxTrainers && id>>32 == 0 {
		hi, _ := bits.Mul64(ownerMagic[p]*id, uint64(p))
		return int(hi)
	}
	if p <= 0 {
		panic(fmt.Sprintf("core: OwnerOf with %d trainers", p))
	}
	return int(id % uint64(p))
}

// ownerMagic[p] is ⌊(2^64−1)/p⌋+1, the fastmod multiplier of OwnerOf.
var ownerMagic = func() (m [MaxTrainers + 1]uint64) {
	for p := 1; p <= MaxTrainers; p++ {
		m[p] = ^uint64(0)/uint64(p) + 1
	}
	return m
}()

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

// DefaultPartitioner is the placement a nil Partitioner stands for, in the
// Oracle and in the training engines' Config alike.
var DefaultPartitioner Partitioner = CommAware{}

// CommAware places a batch's examples to minimise the LRPP cache's
// cross-trainer traffic, the objective of the paper's placement MILP
// (§3.3): every distinct (row, trainer) pair in which the trainer is not
// the row's owner OwnerOf costs one replica push and one gradient partial,
// so the placement minimises the number of such pairs, counting each pair
// once however many of the trainer's examples read the row, under the
// MILP's balance constraint (ii): every trainer gets ⌈b/p⌉ or ⌊b/p⌋
// examples. The paper solves the MILP exactly and finds it too slow for
// the training loop (2.36 s per 16k batch), so it ships the contiguous
// split; CommAware approximates it in a fraction of a decision's time (see
// Placer.place) and keeps the contiguous split on every batch where it
// does not beat it.
//
// The placement depends on the batch and p alone, so the no-cache baseline
// computes the Assign the oracle does. A CommAware value holds nothing:
// its working memory is a Placer, one per caller.
type CommAware struct{}

// Name implements Partitioner.
func (CommAware) Name() string { return "comm-aware" }

// Assign implements Partitioner with a fresh Placer: a caller that places
// every batch keeps one Placer and calls its Assign instead.
func (c CommAware) Assign(b *data.Batch, p int) []int {
	var pl Placer
	return pl.Assign(c, nil, b, p)
}

// isCommAware reports whether part, a nil one standing for the default, is
// CommAware.
func isCommAware(part Partitioner) bool {
	if part == nil {
		part = DefaultPartitioner
	}
	_, ok := part.(CommAware)
	return ok
}

// batchRows is a batch's accesses resolved to batch-local rows: row r is
// the batch's r-th distinct id in order of first access, a numbering that
// depends on the batch alone. Its two builders, the oracle's window fill
// and Placer.Assign, walk the accesses in order, append each new row's
// owner, and note where each example starts.
type batchRows struct {
	acc   []int32 // the row of every access, example-major
	owner []uint8 // OwnerOf of every row
	start []int32 // start[e]: the rows first read before example e
}

// grow sizes acc to b's accesses and returns it.
func (br *batchRows) grow(b *data.Batch) []int32 {
	n := b.TotalAccesses()
	br.acc = slices.Grow(br.acc[:0], n)[:n]
	return br.acc
}

// rowReaders counts the examples that read one row of a batch.
type rowReaders struct {
	n    int32 // how many
	last int32 // the last of them, plus one: 0 before the first
}

// Placer is one caller's placement scratch: CommAware's row numbering,
// reader counts and candidate lists, grown to the largest batch placed
// and then reused, so a warm Placer allocates nothing. It is not safe for
// concurrent use; the oracle and each baseline loop keep their own.
type Placer struct {
	ids  IDTable   // row numbering when the caller has none
	rows batchRows // the rows it numbered

	readers []rowReaders // per row
	light   []int32      // the light rows of every example, example-major
	end     []int32      // end[e] is one past example e's last light row
	vote    []int32      // vote[e*p+t]: rows only e reads that t owns
	cnt     []int32      // cnt[r*p+t]: accesses of light row r by trainer t's examples
	cur     []int        // the placement being refined
	load    []int        // the seed's examples per trainer
	gain    []int32      // gain[e*p+t]: estimated cost saved by moving e to t
	keys    []int32      // a swap round's sort key per example
	sides   []int32      // a trainer pair's examples by side and descending gain
	hist    []int32      // counting-sort buckets
	top     int32        // the largest example: no gain exceeds it either way
}

// Assign places b over p trainers with part, a nil part standing for
// DefaultPartitioner, into dst's storage. CommAware runs in pl's scratch;
// every other partitioner runs as it would alone.
func (pl *Placer) Assign(part Partitioner, dst []int, b *data.Batch, p int) []int {
	if part == nil {
		part = DefaultPartitioner
	}
	if !isCommAware(part) {
		return assignInto(part, dst, b, p)
	}
	// Number the batch's rows by first access, as the oracle's window
	// does, so both paths hand place the same rows.
	pl.ids.Reset()
	br := &pl.rows
	acc, owner, start, k := br.grow(b), br.owner[:0], br.start[:0], 0
	for _, ex := range b.Examples {
		start = append(start, int32(len(owner)))
		for _, id := range ex.Cat {
			r, added := pl.ids.Put(id)
			if added {
				owner = append(owner, uint8(OwnerOf(id, p)))
			}
			acc[k] = r
			k++
		}
	}
	br.owner, br.start = owner, start
	return pl.place(dst, b, br, p)
}

const (
	// lightReaders bounds the rows the placement moves examples by: on the
	// Criteo streams every pair it saves is on a row read by at most about
	// eight examples, and scoring busier rows only blurs the estimates.
	lightReaders = 8
	// placeRounds bounds the swap refinement: each round rescores every
	// example and tries each trainer pair's best swaps once.
	placeRounds = 2
	// ownerMark stands in cnt for a row's owner, whose readers cost
	// nothing: it keeps the owner's count from ever reading 0 or 1, so no
	// loop below tests ownership.
	ownerMark = 1 << 24
)

// isZero is 1 when c is 0 and 0 when c is positive, without a branch: the
// placement's inner loops test counts whose outcome no predictor guesses.
func isZero(c int32) int32 { return (c - 1) >> 31 & 1 }

// isOne is 1 when c is 1 and 0 for any other c ≥ 0, without a branch.
func isOne(c int32) int32 { return 1 + ((c-1)|(1-c))>>31 }

// place is CommAware's placement of b over p trainers, into dst's
// storage, from b's rows br. Nothing it does depends on more than br, b's
// example sizes and p, and every tie breaks by example or trainer index.
//
// The rows fall into four kinds by how many examples read them. A row one
// example reads costs a pair exactly when the example is placed off the
// row's owner: a fixed vote for the owner. Light rows, read by at most
// lightReaders examples, are where placement saves pairs, and the search
// counts them exactly. A row read by more examples than p−1 trainers can
// hold is read on every trainer in every balanced placement, a constant
// p−1 pairs. The warm rows between are not searched: each is charged at
// most what it costs on all p−1 non-owners, less what it costs under the
// contiguous split, which is already p−1 for nearly every one.
//
// A greedy seed deals the examples in batch order, each to the trainer
// with spare capacity on which it costs the least. A bounded Kernighan–Lin
// refinement then swaps examples between trainer pairs: each round scores
// every example's move to every other trainer from the light rows' reader
// counts and its votes (pairs released on its trainer minus pairs
// acquired on the target), and for each trainer pair zips the two sides'
// candidates in descending gain, keeping a swap only when its exact
// change lowers the cost. Swaps keep every trainer's load, so the seed's
// balance holds. The result replaces the contiguous split only when it
// costs strictly fewer pairs even with every warm row charged in full.
func (pl *Placer) place(dst []int, b *data.Batch, br *batchRows, p int) []int {
	out := Contiguous{}.AssignInto(dst, b, p)
	n := len(out)
	if p == 1 || n < 2 {
		return out
	}
	// One pass over the rows casts the votes, resets the light rows'
	// counts, and prices the contiguous split against the placement's
	// worst case on the warm rows; one pass over the accesses lists each
	// example's light rows.
	full := int32((p - 1) * ((n + p - 1) / p))
	nrows := len(br.owner)
	pl.readers = slices.Grow(pl.readers[:0], nrows)[:nrows]
	readers := pl.readers
	clear(readers)
	k := 0
	for e, ex := range b.Examples {
		for _, r := range br.acc[k : k+len(ex.Cat)] {
			if ri := &readers[r]; ri.last != int32(e+1) {
				ri.last = int32(e + 1)
				ri.n++
			}
		}
		k += len(ex.Cat)
	}
	pl.vote = slices.Grow(pl.vote[:0], n*p)[:n*p]
	pl.cnt = slices.Grow(pl.cnt[:0], nrows*p)[:nrows*p]
	vote, cnt := pl.vote, pl.cnt
	clear(vote)
	clear(cnt)
	// margin is the contiguous split's cost less the most the warm rows
	// can add. A row's cost under the contiguous split counts the parts
	// of its first and its last reader that it does not own: exact at
	// p = 2, and never above the truth, which is what the margin needs.
	margin, e := 0, 0
	for r, ri := range readers {
		for e+1 < n && int(br.start[e+1]) <= r {
			e++
		}
		o := br.owner[r]
		c := ((Ranks(1)<<out[e] | Ranks(1)<<out[ri.last-1]) &^ (Ranks(1) << o)).Count()
		cnt[r*p+int(o)] = ownerMark
		switch m := ri.n; {
		case m == 1:
			vote[e*p+int(o)]++
			margin += c - 1 // the placement's costs count votes as −1
		case m <= lightReaders:
			margin += c
		case m <= full:
			margin -= p - 1 - c
		}
	}
	pl.listLight(b, br)
	cost := pl.seed(n, p)
	for range placeRounds {
		saved := pl.refine(n, p)
		if saved == 0 {
			break
		}
		cost -= saved
	}
	if cost < margin {
		copy(out, pl.cur)
	}
	return out
}

// listLight lists each example's light rows. Every access is written to
// the list and kept when its row is light, so no branch is taken on rows.
func (pl *Placer) listLight(b *data.Batch, br *batchRows) {
	na := len(br.acc)
	light := slices.Grow(pl.light[:0], na)[:na]
	end := slices.Grow(pl.end[:0], len(b.Examples))
	acc, readers := br.acc, pl.readers
	l, k, top := int32(0), 0, 0
	for _, ex := range b.Examples {
		top = max(top, len(ex.Cat))
		for _, r := range acc[k : k+len(ex.Cat)] {
			m := readers[r].n
			light[l] = r
			l += 1 + ((m-2)|(lightReaders-m))>>31 // 2 ≤ m ≤ lightReaders
		}
		k += len(ex.Cat)
		end = append(end, l)
	}
	pl.light, pl.end, pl.top = light[:l], end, int32(top)
}

// lightOf returns example e's light rows.
func (pl *Placer) lightOf(e int) []int32 {
	if e == 0 {
		return pl.light[:pl.end[0]]
	}
	return pl.light[pl.end[e-1]:pl.end[e]]
}

// move shifts example e from trainer a to trainer b in the light rows'
// counts and returns the change in cost.
func (pl *Placer) move(e, p, a, b int) int {
	cnt, d := pl.cnt, pl.vote[e*p+a]-pl.vote[e*p+b]
	for _, r := range pl.lightOf(e) {
		row := cnt[int(r)*p:][:p]
		row[a]--
		d -= isZero(row[a])
		d += isZero(row[b])
		row[b]++
	}
	return int(d)
}

// seed deals the examples in batch order, each to the trainer with spare
// capacity on which it costs the least (ties: the lighter load, then the
// lower index), into pl.cur, and returns the cost. Capacity is constraint
// (ii): ⌊n/p⌋ each, plus one more for the first n mod p trainers to reach
// it.
func (pl *Placer) seed(n, p int) int {
	pl.cur = slices.Grow(pl.cur[:0], n)[:n]
	pl.load = slices.Grow(pl.load[:0], p)[:p]
	load, cur, cnt, vote := pl.load, pl.cur, pl.cnt, pl.vote
	clear(load)
	base, extra, big, cost, lo := n/p, n%p, 0, int32(0), int32(0)
	for e := range n {
		rows := pl.light[lo:pl.end[e]]
		lo = pl.end[e]
		best, least := -1, int32(0)
		for t := range p {
			if load[t] > base || load[t] == base && big == extra {
				continue
			}
			c := -vote[e*p+t]
			for _, r := range rows {
				c += isZero(cnt[int(r)*p+t])
			}
			if best < 0 || c < least || c == least && load[t] < load[best] {
				best, least = t, c
			}
		}
		cur[e] = best
		if load[best]++; load[best] > base {
			big++
		}
		// Count e on best, pricing it again: a row e reads twice costs
		// one pair, not the two the estimate charged.
		cost -= vote[e*p+best]
		for _, r := range rows {
			c := &cnt[int(r)*p+best]
			cost += isZero(*c)
			*c++
		}
	}
	return int(cost)
}

// refine runs one swap round over pl.cur and returns the cost it saved.
func (pl *Placer) refine(n, p int) int {
	// Score every example: gain[e*p+t] = pairs released on its trainer a
	// (light rows only it reads there) − pairs acquired on t + its vote
	// shift.
	pl.gain = slices.Grow(pl.gain[:0], n*p)[:n*p]
	gain, cnt, vote, top, lo := pl.gain, pl.cnt, pl.vote, pl.top, int32(0)
	for e, a := range pl.cur {
		rows := pl.light[lo:pl.end[e]]
		lo = pl.end[e]
		rel := -vote[e*p+a]
		for _, r := range rows {
			rel += isOne(cnt[int(r)*p+a])
		}
		for t := range p {
			if t == a {
				continue
			}
			g := rel + vote[e*p+t]
			for _, r := range rows {
				g -= isZero(cnt[int(r)*p+t])
			}
			gain[e*p+t] = g
		}
	}
	saved := 0
	for a := range p {
		for b := a + 1; b < p; b++ {
			onA, onB := pl.sortPair(a, b, n, p)
			for i := 0; i < len(onA) && i < len(onB); i++ {
				e1, e2 := int(onA[i]), int(onB[i])
				if gain[e1*p+b]+gain[e2*p+a] <= 0 {
					break
				}
				if d := pl.move(e1, p, a, b) + pl.move(e2, p, b, a); d < 0 {
					pl.cur[e1], pl.cur[e2] = b, a
					saved -= d
					// Their scores are stale now: floor them, so no later
					// pair of this round tries them.
					for t := range p {
						gain[e1*p+t], gain[e2*p+t] = -top, -top
					}
				} else {
					pl.move(e2, p, a, b)
					pl.move(e1, p, b, a)
				}
			}
		}
	}
	return saved
}

// sortPair lists the examples on trainer a and those on trainer b, each
// by descending gain for a move to the other and by ascending index among
// equals: one stable counting sort keyed by side, then gain, with the
// examples on neither trainer keyed last.
func (pl *Placer) sortPair(a, b, n, p int) (onA, onB []int32) {
	top := pl.top
	w := 2*top + 1 // gains span [−top, top]
	pl.keys = slices.Grow(pl.keys[:0], n)[:n]
	pl.hist = slices.Grow(pl.hist[:0], int(2*w+2))[:2*w+2]
	pl.sides = slices.Grow(pl.sides[:0], n)[:n]
	keys, hist := pl.keys, pl.hist
	clear(hist)
	for e, t := range pl.cur {
		key := 2 * w // neither
		if t == a {
			key = top - pl.gain[e*p+b]
		} else if t == b {
			key = w + top - pl.gain[e*p+a]
		}
		keys[e] = key
		hist[key+1]++
	}
	for i := 1; i < len(hist); i++ {
		hist[i] += hist[i-1]
	}
	split, rest := hist[w], hist[2*w]
	for e, key := range keys {
		pl.sides[hist[key]] = int32(e)
		hist[key]++
	}
	return pl.sides[:split], pl.sides[split:rest]
}
