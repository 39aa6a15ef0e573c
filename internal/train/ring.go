package train

import (
	"fmt"
	"slices"
	"sync"

	"bagpipe/internal/core"
	"bagpipe/internal/transport"
)

// iterRec is one live iteration's state on a trainer, from the first event
// that names the iteration (its admission, or a peer's replica push that
// arrives earlier) until its retirement clears it. Its buffers stay with
// it, so a steady run allocates none of them per iteration.
type iterRec struct {
	iter  int // the iteration it holds, or unclaimed
	plan  *core.Plan
	rows  chan [][]float32 // the prefetch future, capacity 1
	slots []int32          // slots[k] is the slot of plan.Owned[k], set by stage
	// outs[q] is the replica snapshot stage pushes to reader q; the stager
	// alone touches it, emptying each entry as it sends it.
	outs    []transport.ReplicaMsg
	reps    []transport.ReplicaMsg // owner → the replica push received from it
	repFrom rankBits               // the owners heard from
	// sync[c][q] lists, in plan order, the slots of the owned rows reader q
	// sends class-c partials for: its Remote ids we own whose needed-next
	// flag is class c, which a sync flush's partials zip against. stage
	// builds them as it registers the iteration (registered). owed counts
	// the flushes still to land, one per non-empty list, and landed marks
	// per class the readers whose flush has: the record is not emitted, so
	// not retired, until owed is 0, and the lists outlive every flush that
	// reads them.
	sync       [transport.NumSyncClasses][][]int32
	landed     [transport.NumSyncClasses]rankBits
	owed       int
	registered bool
	staged     bool // stage has snapshotted the replicas: compute may gather
	routed     bool // compute deposited and queued its partials
	emitted    bool // routed and every expiring row evicted: maintenance's to write
	// expiring counts the owned rows still to evict, evs their write-backs.
	expiring int
	evs      []core.Eviction
}

// unclaimed tags a record no live iteration holds.
const unclaimed = -1

// iterRing holds a trainer's live iterations, iteration x at x mod N, with
// N = ℒ+2. Records clear at retirement, before the iteration's lookahead
// token returns, so with r the oldest unretired iteration:
//
//   - the dispatcher admits at most x = r+ℒ−1 (it holds one of ℒ tokens);
//   - a peer pushes a replica for y only from its stage(y), which needs its
//     collective round y−2, which needs this trainer's compute(y−2), so
//     y−2 was admitted and y ≤ r+ℒ+1.
//
// Live iterations lie in [r, r+ℒ+1], ℒ+2 apart at most, so no two share a
// record. With trainer 0's write-backs delayed, pushes were measured
// arriving ℒ ahead of r: ℒ+1 records is the observed floor, ℒ+2 the bound.
// The admission depth D does not shorten it: it bounds admissions past the
// oldest unrouted iteration, and retirement lags routing by as much as the
// write-backs do, up to the ℒ tokens.
//
// Sync flushes are filed here too, and claim nothing: a peer computes its
// partials for x from the replica our stage(x) pushed after registering x,
// so a flush for x finds x's record registered, and the record is retired
// only once every flush it expects has landed (iterRec.owed). Holding a
// record that long holds r back, and with r the tokens and so every
// admission, so the bound above holds unchanged: x waits for its peers to
// route x, which they do urgent flush first, deferred right behind.
type iterRing []iterRec

func newIterRing(L, P int) iterRing {
	r := make(iterRing, L+2)
	for i := range r {
		r[i] = iterRec{iter: unclaimed, rows: make(chan [][]float32, 1), outs: make([]transport.ReplicaMsg, P), reps: make([]transport.ReplicaMsg, P)}
		for c := range r[i].sync {
			r[i].sync[c] = make([][]int32, P)
		}
	}
	return r
}

// registered returns iteration x's record when x is live and registered,
// nil otherwise. It claims nothing.
func (r iterRing) registered(x int) *iterRec {
	if x < 0 {
		return nil
	}
	if rec := &r[x%len(r)]; rec.iter == x && rec.registered {
		return rec
	}
	return nil
}

// at returns iteration x's record, claiming it when unclaimed. A record still
// holding another iteration is a broken window bound, never overwritten.
func (r iterRing) at(x int) *iterRec {
	rec := &r[x%len(r)]
	switch rec.iter {
	case x:
	case unclaimed:
		rec.iter = x
	default:
		panic(fmt.Sprintf("train: iteration %d needs ring record %d, still held by live iteration %d (%d records)", x, x%len(r), rec.iter, len(r)))
	}
	return rec
}

// emitted reports whether iteration x is live and emitted.
func (r iterRing) emitted(x int) bool {
	rec := &r[x%len(r)]
	return rec.iter == x && rec.emitted
}

// retire clears iteration x's record for reuse, keeping its buffers. The
// fields are reset one by one: the stager may still be sending x's outs.
func (r iterRing) retire(x int) {
	rec := r.at(x)
	clear(rec.reps)
	clear(rec.evs)
	rec.iter, rec.plan = unclaimed, nil
	rec.slots, rec.evs = rec.slots[:0], rec.evs[:0]
	rec.repFrom, rec.expiring = 0, 0
	rec.landed = [transport.NumSyncClasses]rankBits{}
	rec.registered, rec.staged, rec.routed, rec.emitted = false, false, false, false
}

// ownedFrom returns the index of id in the record's plan.Owned, searching
// from k. The Prefetch and ReplicaOut lists are ascending subsequences of
// Owned, so passing the previous result resolves a whole list in one pass.
func (rec *iterRec) ownedFrom(k int, id uint64) int {
	owned := rec.plan.Owned
	for k < len(owned) && owned[k] < id {
		k++
	}
	if k == len(owned) || owned[k] != id {
		panic(fmt.Sprintf("train: iteration %d: id %d is not among its owned ids", rec.iter, id))
	}
	return k
}

// rankBits is a trainer-set bitmask. Trainer counts are capped at
// core.MaxTrainers (Config.validate enforces it), which lets the per-(id,
// iteration) contributor bookkeeping and the per-iteration replica-arrival
// set live in one machine word each instead of a map allocated per merge.
type rankBits uint64

func (b *rankBits) set(r int) { *b |= 1 << uint(r) }

func (b rankBits) has(r int) bool { return b&(1<<uint(r)) != 0 }

// clearBit drops rank r's bit and reports whether it was set.
func (b *rankBits) clearBit(r int) bool {
	was := *b&(1<<uint(r)) != 0
	*b &^= 1 << uint(r)
	return was
}

// slotRec is the owner's one record per row of its partition, from the
// iteration that first registers the row (before its prefetch lands) until
// the row's eviction.
type slotRec struct {
	id  uint64
	row []float32 // nil until the prefetched row is inserted
	ttl int
	// merges is a two-entry ring of the row's pending per-iteration
	// merges, the oldest at head. Registration appends them in iteration
	// order and they apply strictly in that order, so the row replays the
	// exact update sequence the baseline produces. Two suffice: the stager
	// registers one iteration at a time, and stage(x) returns only once
	// every merge before x on the rows x uses has applied, so registering a
	// row finds at most the merge of its previous use pending.
	merges        [2]iterMerge
	head, pending uint8
}

// iterMerge is one (row, iteration)'s merge, waiting until every expected
// trainer has reported (expect, the ranks still owing a partial, is
// empty). Its partials wait in the partition's parts table.
type iterMerge struct {
	iter   int
	expect rankBits
}

// partition is an owner's cache partition: a slab of slot records, one per
// row it is responsible for. Slots are private to the trainer — handed out
// by the id table at a row's registration and freed at its eviction, so the
// slab and the table are bounded by the partition's peak occupancy — and
// the table is consulted once per row per registration; every other step
// of an iteration, the merge of a received partial included, indexes the
// slab through the slots its registration recorded. It is not synchronized
// (the trainer's mu guards it), and records and their merges are reused in
// place. The partials grow with the slab, so a slot costs no allocation of
// its own however the peak occupancy moves with the pace of the merges:
// the steady state allocates nothing.
type partition struct {
	ranks int
	ids   core.IDTable
	recs  []slotRec
	// parts holds each merge entry's partials, one per rank: entry e of
	// slot s owns parts[(2s+e)·ranks:][:ranks], arena-backed and nil until
	// deposited.
	parts    [][]float32
	resident int // rows inserted and not yet evicted
	peak     int
}

func newPartition(ranks int) partition {
	return partition{ranks: ranks}
}

// slot returns id's record, allocating one when the id has none.
func (pt *partition) slot(id uint64) int32 {
	s, added := pt.ids.Put(id)
	if added {
		if int(s) == len(pt.recs) {
			pt.recs = append(pt.recs, slotRec{})
			n := len(pt.parts) + 2*pt.ranks
			pt.parts = slices.Grow(pt.parts, 2*pt.ranks)[:n]
		}
		pt.recs[s].id = id
	}
	return s
}

// expect registers iteration iter's merge on slot s, awaiting one partial
// from every rank in users.
func (pt *partition) expect(s int32, iter int, users rankBits) {
	rec := &pt.recs[s]
	if int(rec.pending) == len(rec.merges) {
		panic(fmt.Sprintf("train: id %d: merge of iteration %d registered behind %d pending ones", rec.id, iter, rec.pending))
	}
	rec.merges[(rec.head+rec.pending)&1] = iterMerge{iter: iter, expect: users}
	rec.pending++
}

// entry returns slot s's merge entry e and its partials, one per rank.
func (pt *partition) entry(s int32, e uint8) (*iterMerge, [][]float32) {
	k := (2*int(s) + int(e)) * pt.ranks
	return &pt.recs[s].merges[e], pt.parts[k : k+pt.ranks : k+pt.ranks]
}

// merge returns slot s's pending merge for iteration iter and its
// partials, nil if none. Both are valid until the slot's next expect or
// pop.
func (pt *partition) merge(s int32, iter int) (*iterMerge, [][]float32) {
	rec := &pt.recs[s]
	for i := range rec.pending {
		if e := (rec.head + i) & 1; rec.merges[e].iter == iter {
			return pt.entry(s, e)
		}
	}
	return nil, nil
}

// settled reports whether slot s has applied every merge before iteration x.
func (pt *partition) settled(s int32, x int) bool {
	rec := &pt.recs[s]
	return rec.pending == 0 || rec.merges[rec.head].iter >= x
}

// ready returns slot s's oldest pending merge and its partials once every
// expected partial has arrived, nil otherwise. Both are valid until the
// slot's next expect or pop.
func (pt *partition) ready(s int32) (*iterMerge, [][]float32) {
	if rec := &pt.recs[s]; rec.pending > 0 && rec.merges[rec.head].expect == 0 {
		return pt.entry(s, rec.head)
	}
	return nil, nil
}

// pop retires slot s's oldest merge, whose partials the fold has already
// returned to the arena, leaving their entries empty for the next
// registration.
func (pt *partition) pop(s int32) {
	rec := &pt.recs[s]
	rec.head ^= 1
	rec.pending--
}

// insert adopts row as slot s's resident value.
func (pt *partition) insert(s int32, row []float32) {
	rec := &pt.recs[s]
	rec.row = row
	pt.resident++
	if pt.resident > pt.peak {
		pt.peak = pt.resident
	}
}

// evict frees slot s and hands its row over for write-back.
func (pt *partition) evict(s int32) core.Eviction {
	rec := &pt.recs[s]
	ev := core.Eviction{ID: rec.id, Row: rec.row}
	pt.ids.Delete(rec.id)
	rec.row = nil
	pt.resident--
	return ev
}

// planLead is how many plans the oracle may queue for a trainer beyond the
// one its dispatcher holds, capped at ℒ. A queued plan pins its iteration's
// batch ahead of use, so the lead is memory, not throughput: once the
// oracle is a few decisions ahead of the dispatcher it only waits on a full
// queue. On the uniform-key two-trainer TCP shape, a lead of 2 made rank 1
// wait for plans and a lead of 8 did not.
const planLead = 8

// planQueue is the capacity of a plan channel the oracle feeds directly.
func planQueue(L int) int { return min(L, planLead) }

// planSource feeds a trainer's dispatcher its plans in iteration order:
// the oracle's channel in one process and on rank 0, the planRing on a
// worker of rank ≥ 1.
type planSource interface {
	// take returns the next plan, or false once the run's last has gone.
	take() (*core.Plan, bool)
}

// planChan is a plan channel the oracle fills and closes.
type planChan chan *core.Plan

func (c planChan) take() (*core.Plan, bool) {
	pl, ok := <-c
	return pl, ok
}

// planRing re-sequences the oracle plans a worker of rank ≥ 1 receives over
// the mesh: the fabric may reorder them, the dispatcher drains them in
// iteration order. The receiver files plan x at x mod N and the dispatcher
// clears the slot as it takes the plan. With n the next iteration to drain,
// lead = planQueue(ℒ), and D rank 0's admission depth (D ≤ ℒ):
//
//   - rank 0's dispatcher holds at most plan u+D, with u its oldest
//     unrouted iteration: it admits an iteration only with a depth credit,
//     D of them, returned as it routes, and takes the next plan before
//     waiting for one (its ℒ tokens bound it as well, and more loosely).
//     Its channel queues lead more, and the oracle ships a plan to the
//     peers before it queues it locally, so a peer has at most plan
//     u+D+lead+1.
//   - Rank 0 routed u−1 in compute(u−1), which began after compute(u−2)
//     and its collective round, whose root waits for this rank's
//     compute(u−2) contribution. So this rank routed u−2 (its compute
//     routes before it contributes), and n ≥ u−1.
//
// Undrained plans therefore lie in [n, n+D+lead+2], and N = ℒ+lead+3 slots
// hold them apart at any depth. put refuses a plan outside that window or
// the run, and a second plan for one iteration: a peer sending either is
// broken, and a plan the dispatcher would never drain is memory held for
// good.
//
// On a fabric that decodes plans (TCP), plan x decodes into a buffer from
// the ring's free list (buf), which slot x mod N holds until this trainer
// routes x and hands the plan back (handBack). A held plan is one not yet
// routed here, so its iteration is at least u−1 by the argument above:
// held plans lie in [u−1, u+D+lead+1], and the ring makes at most D+lead+3
// buffers, not one per slot. buf checks the slot anyway, and a plan whose
// slot is still held, or outside the window, decodes into a fresh buffer.
type planRing struct {
	rank int
	mu   sync.Mutex
	cond sync.Cond
	next int // the next iteration the dispatcher drains
	end  int // the run's iteration count
	ring []*core.Plan
	held []*transport.PlanBuf // held[i]: the buffer slot i's plan decoded into, until handed back
	free []*transport.PlanBuf // buffers no plan holds
}

func newPlanRing(rank, L, iters int) *planRing {
	n := L + planQueue(L) + 3
	r := &planRing{rank: rank, end: iters, ring: make([]*core.Plan, n), held: make([]*transport.PlanBuf, n)}
	r.cond.L = &r.mu
	return r
}

// buf returns a free buffer for plan x to decode into, nil when x is
// outside the window or its slot still holds a buffer (the mesh receiver of
// a decoding fabric, before put).
func (r *planRing) buf(x int) *transport.PlanBuf {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := x % len(r.ring)
	if x < r.next || x >= r.end || x >= r.next+len(r.ring) || r.ring[i] != nil || r.held[i] != nil {
		return nil
	}
	var b *transport.PlanBuf
	if n := len(r.free); n > 0 {
		b, r.free = r.free[n-1], r.free[:n-1]
	} else {
		b = new(transport.PlanBuf)
	}
	r.held[i] = b
	return b
}

// handBack returns the buffer of plan x, pl, to the free list when pl was
// decoded into one. It does not read pl, which its oracle may already have
// reused when pl was not decoded.
func (r *planRing) handBack(x int, pl *core.Plan) {
	i := x % len(r.ring)
	r.mu.Lock()
	if b := r.held[i]; b != nil && b.Plan() == pl {
		r.held[i] = nil
		r.free = append(r.free, b)
	}
	r.mu.Unlock()
}

// put files one arrived plan (the mesh receiver goroutine).
func (r *planRing) put(pl *core.Plan) {
	x := pl.Dec.Iter
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case x < r.next:
		panic(fmt.Sprintf("train: trainer %d received a plan for iteration %d, already drained up to %d", r.rank, x, r.next))
	case x >= r.end || x >= r.next+len(r.ring):
		panic(fmt.Sprintf("train: trainer %d received a plan for iteration %d, beyond the %d-plan ring from iteration %d of %d", r.rank, x, len(r.ring), r.next, r.end))
	case r.ring[x%len(r.ring)] != nil:
		panic(fmt.Sprintf("train: trainer %d received a second plan for iteration %d", r.rank, x))
	}
	r.ring[x%len(r.ring)] = pl
	r.cond.Signal()
}

// take waits for the next iteration's plan and clears its slot.
func (r *planRing) take() (*core.Plan, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == r.end {
		return nil, false
	}
	slot := &r.ring[r.next%len(r.ring)]
	for *slot == nil {
		r.cond.Wait()
	}
	pl := *slot
	*slot = nil
	r.next++
	return pl, true
}
