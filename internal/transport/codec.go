package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// This file is the wire codec for everything that crosses a real network:
// the trainer-mesh payloads (replica pushes, delayed-sync flushes, oracle
// plans, collective contributions) and the framing shared with the
// trainer↔embedding-server link. Encoding is explicit little-endian — no
// gob/json/reflection on the hot path — and deterministic: id runs travel
// strictly ascending, as their senders build them, so the same payload
// always produces the same bytes (the codec round-trip tests rely on it).
// A run of fixed-width values moves with one copy through a byte view of
// its slice (bytesOf); a big-endian host adds a swap pass.
//
// Frame layout, shared by the mesh and the link:
//
//	u32  frame length (bytes after this field)
//	...  frame body (first body byte is a payload-type or op tag)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.

// Wire payload types. These are the messages the LRPP engine exchanges over
// a Mesh; internal/train uses them as its payload structs for every mesh
// implementation, so in-process, simulated, and TCP runs move the identical
// values (TCP additionally through EncodePayload/DecodePayload).
type (
	// ReplicaMsg carries an owner's per-iteration row snapshots to a
	// non-owner whose examples read them (LRPP logical replication), all of
	// one width greater than zero. No ids: Rows[i] is the row of the i-th
	// id of the owner's ReplicaOut list for the reader, which is the
	// reader's ascending Remote ids of that owner. The header and rows are
	// pooled (GetRowSlice, Rows(dim)) and transfer to the receiver, which
	// recycles them once consumed (ReleasePayload).
	ReplicaMsg struct {
		Iter int
		Rows [][]float32
	}

	// SyncMsg is one delayed-sync flush: one sender's gradient partials for
	// one iteration and class, all of one width. Partials[i] is the sum of
	// the sender's own examples' gradients, in its sub-batch order, for the
	// i-th of its ascending Remote ids of the owner whose RemoteNext is the
	// class — on the owner, its Owned ids the sender reads whose OwnedNext
	// is the class. The sender is MeshMsg.From; the owner folds an (id,
	// iteration)'s partials in rank order from zero, the rule dense
	// gradients follow. Like replica rows, the header and vectors are
	// pooled and transfer to the receiver. It only travels inside a
	// SyncBatchMsg.
	SyncMsg struct {
		Iter     int
		Class    SyncClass
		Partials [][]float32
	}

	// SyncBatchMsg is one sync frame: the flushes one sender sends one owner
	// together. The engine sends each class of an iteration in its own
	// frame, urgent first.
	SyncBatchMsg struct {
		Flushes []SyncMsg
	}

	// PlanMsg distributes one trainer's oracle plan from the rank-0 process
	// (which hosts the Oracle Cacher) to its peer. The plan's sorted slices
	// travel as they are; of its Decision only what a remote trainer
	// consumes travels (Iter, Assign, Batch — the plan itself carries the
	// needed-next flags of the rows it routes), and of the batch only the
	// destination's assigned examples, indexed — the decoded Batch keeps its
	// full length with empty slots elsewhere, so batch-order semantics (loss
	// scaling by the full size, the rank's sub-batch order its gradient
	// partials accumulate in) are preserved at a fraction of the bytes.
	PlanMsg struct {
		Plan *core.Plan
	}

	// CollMsg is retired: it was the one-frame-per-parameter collective
	// step (payload tag 4). The type stays declared for callers that still
	// name it in a type switch; it has no wire encoding, and EncodePayload
	// panics on it.
	CollMsg struct{}

	// FusedCollMsg is one collective step: every dense-parameter gradient
	// segment plus the float64 loss term of one iteration packed into a
	// single frame behind a length-prefixed segment table — a rank's
	// contribution to, or the root's result of, all-reduce call number Seq.
	// Origin is the rank whose terms these are (0 for the result).
	FusedCollMsg struct {
		Seq    uint64
		Origin int
		Segs   [][]float32
		Loss   []float64
	}

	// RawMsg is an opaque byte payload (conformance tests, future control
	// traffic).
	RawMsg []byte
)

// SyncClass is which of an iteration's two flushes a SyncMsg is: the
// partials of rows the next iteration reads, which its stage waits for, or
// the rest, which nothing waits for until the rows' last use.
type SyncClass uint8

const (
	SyncUrgent SyncClass = iota
	SyncDeferred
	NumSyncClasses
)

// Payload type tags (first byte of an encoded payload).
const (
	tagReplica byte = 1 + iota
	_               // 2 was the standalone SyncMsg frame; flushes only travel coalesced
	tagPlan
	_ // 4 was the per-parameter CollMsg frame; reserved
	tagRaw
	_ // 6 was the float16 replica frame; reserved
	tagSyncBatch
	tagFusedColl
)

// EncodePayload encodes one of the wire payload types, tag first.
// Unknown payload types panic: only codec-known messages may be handed to a
// networked mesh, and catching that at the first Send beats a silent drop.
func EncodePayload(p any) []byte {
	return appendPayload(make([]byte, 0, payloadSize(p)), p)
}

// payloadSize is the exact length appendPayload writes for p, so a frame
// can be taken from the pool at its final size. It is also the size the
// engine declares for a replica push and a sync frame.
func payloadSize(p any) int {
	switch m := p.(type) {
	case ReplicaMsg:
		return 1 + 8 + runSize(m.Rows)
	case SyncBatchMsg:
		n := 1 + 4
		for _, f := range m.Flushes {
			n += 8 + 1 + runSize(f.Partials)
		}
		return n
	case PlanMsg:
		return 1 + planSize(m.Plan)
	case FusedCollMsg:
		n := 1 + 8 + 4 + 4 + 4 + 8*len(m.Loss)
		for _, seg := range m.Segs {
			n += 4 + 4*len(seg)
		}
		return n
	case RawMsg:
		return 1 + len(m)
	}
	return 0 // appendPayload rejects it
}

// appendPayload is EncodePayload into a caller-supplied buffer, so framing
// code can encode directly after its header without a second copy.
func appendPayload(b []byte, p any) []byte {
	switch m := p.(type) {
	case ReplicaMsg:
		b = append(b, tagReplica)
		b = putU64(b, uint64(m.Iter))
		b = putRun(b, "replica", m.Rows)
	case SyncBatchMsg:
		b = append(b, tagSyncBatch)
		b = putU32(b, uint32(len(m.Flushes)))
		for _, f := range m.Flushes {
			if f.Class >= NumSyncClasses {
				panic(fmt.Sprintf("transport: sync class %d", f.Class))
			}
			b = putU64(b, uint64(f.Iter))
			b = append(b, byte(f.Class))
			b = putRun(b, "sync", f.Partials)
		}
	case PlanMsg:
		b = append(b, tagPlan)
		b = putPlan(b, m.Plan)
	case FusedCollMsg:
		b = append(b, tagFusedColl)
		b = putU64(b, m.Seq)
		b = putU32(b, uint32(m.Origin))
		b = putU32(b, uint32(len(m.Segs)))
		for _, seg := range m.Segs {
			b = putF32s(b, seg)
		}
		b = putF64s(b, m.Loss)
	case RawMsg:
		b = append(b, tagRaw)
		b = append(b, m...)
	default:
		panic(fmt.Sprintf("transport: cannot encode payload type %T", p))
	}
	return b
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(b []byte) (any, error) { return decodePayload(b, nil) }

// decodePayload is DecodePayload with a plan decoding into the buffer slots
// names for its iteration.
func decodePayload(b []byte, slots PlanSlots) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	body := b[1:]
	r := &wireReader{b: body}
	var out any
	switch b[0] {
	case tagReplica:
		m := ReplicaMsg{Iter: int(r.u64())}
		m.Rows = r.run()
		out = m
	case tagSyncBatch:
		m := SyncBatchMsg{Flushes: GetSyncList(r.count(8 + 1 + 8))}
		for i := range m.Flushes {
			f := &m.Flushes[i]
			f.Iter = int(r.u64())
			if f.Class = SyncClass(r.u8()); f.Class >= NumSyncClasses {
				r.invalid("sync class %d", f.Class)
			}
			f.Partials = r.run()
		}
		out = m
	case tagPlan:
		var buf *PlanBuf
		if slots != nil {
			if x, ok := planIter(body); ok {
				buf = slots(x)
			}
		}
		if buf == nil {
			buf = new(PlanBuf)
		}
		out = PlanMsg{Plan: r.plan(buf)}
	case tagFusedColl:
		// Segments come from the per-length arenas the senders snapshot
		// into; the collective returns them once folded or copied out.
		m := FusedCollMsg{Seq: r.u64(), Origin: int(r.u32())}
		n := r.count(4)
		m.Segs = make([][]float32, n)
		for i := range m.Segs {
			if k := r.count(4); k > 0 {
				m.Segs[i] = Rows(k).Get()
				fillRow(m.Segs[i], r.take(k, 4))
			}
		}
		m.Loss = r.f64s()
		out = m
	case tagRaw:
		raw := make(RawMsg, len(b)-1)
		copy(raw, b[1:])
		return raw, nil
	default:
		return nil, fmt.Errorf("transport: unknown payload tag %d", b[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after payload tag %d", len(r.b), b[0])
	}
	return out, nil
}

// runWidth is the width of a run's rows: that of its first, 0 for none.
func runWidth(rows [][]float32) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

// runSize is the exact length putRun writes for rows.
func runSize(rows [][]float32) int { return 4 + 4 + 4*len(rows)*runWidth(rows) }

// putRun writes a run of rows of one width: the width, the row count, then
// the rows' floats back to back. The width is 0 exactly for an empty run.
// A ragged run, or rows of width 0, panic — a programming error the
// encoder reports at the first Send.
func putRun(b []byte, kind string, rows [][]float32) []byte {
	dim := runWidth(rows)
	if len(rows) > 0 && dim == 0 {
		panic(fmt.Sprintf("transport: %s rows of width 0", kind))
	}
	b = putU32(b, uint32(dim))
	b = putU32(b, uint32(len(rows)))
	for i, row := range rows {
		if len(row) != dim {
			panic(fmt.Sprintf("transport: %s row %d has width %d, run width is %d", kind, i, len(row), dim))
		}
		b = putF32sRaw(b, row)
	}
	return b
}

// run reads putRun's layout into a pooled header and arena rows (one GetN),
// the pools the in-process senders draw from; nil for an empty run. The
// count is proven against the bytes present before anything is allocated,
// so a corrupt frame cannot drive an allocation past its own size.
func (r *wireReader) run() [][]float32 {
	dim := int(r.u32())
	if dim < 0 || dim > len(r.b)/4 { // no row that wide fits; on a 32-bit host it may not even fit an int
		r.fail()
	}
	n := r.count(4 * dim)
	if (n == 0) != (dim == 0) {
		r.fail()
	}
	if n == 0 || r.err != nil {
		return nil
	}
	rows := GetRowSlice(n)
	Rows(dim).GetN(rows)
	for _, row := range rows {
		fillRow(row, r.take(dim, 4))
	}
	return rows
}

// fillRow decodes len(row) float32 bit patterns from reg.
func fillRow(row []float32, reg []byte) {
	copyLE(bytesOf(row), reg, 4)
}

// putPlan writes a plan: its header (trainer, trainer count), its sorted
// and parallel slices each behind its own count, then the Decision subset
// remote trainers consume (Iter, Assign, Batch).
func putPlan(b []byte, pl *core.Plan) []byte {
	b = putU32(b, uint32(pl.Trainer))
	b = putU32(b, uint32(len(pl.ReplicaOut)))
	b = putU64s(b, pl.Owned)
	b = putInts(b, pl.OwnedTTL)
	b = putU32(b, uint32(len(pl.OwnedUsers)))
	for _, u := range pl.OwnedUsers {
		b = putU64(b, uint64(u))
	}
	b = putBools(b, pl.OwnedNext)
	b = putU64s(b, pl.Prefetch)
	b = putU64s(b, pl.Expiring)
	for _, ids := range pl.ReplicaOut {
		b = putU64s(b, ids)
	}
	b = putU64s(b, pl.Remote)
	b = putInts(b, pl.RemoteOwner)
	b = putBools(b, pl.RemoteNext)
	b = putU64(b, uint64(pl.ReplicaFrom))

	d := pl.Dec
	b = putU64(b, uint64(d.Iter))
	b = putInts(b, d.Assign)
	// Only the destination trainer's assigned examples travel (indexed, so
	// batch-order semantics — loss scaling by the full size, the sub-batch
	// order gradient partials accumulate in — are preserved); shipping the
	// whole batch to every peer would make plans P× redundant.
	b = putU64(b, uint64(d.Batch.Index))
	b = putU32(b, uint32(len(d.Batch.Examples)))
	mine := 0
	for i := range d.Batch.Examples {
		if d.Assign[i] == pl.Trainer {
			mine++
		}
	}
	b = putU32(b, uint32(mine))
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != pl.Trainer {
			continue
		}
		b = putU32(b, uint32(i))
		b = putF32s(b, ex.Dense)
		b = putU64s(b, ex.Cat)
		b = putF32(b, ex.Label)
	}
	return b
}

// planSize is the exact length putPlan writes for pl.
func planSize(pl *core.Plan) int {
	n := 4 + 4 +
		4 + 8*len(pl.Owned) + 4 + 4*len(pl.OwnedTTL) + 4 + 8*len(pl.OwnedUsers) + 4 + len(pl.OwnedNext) +
		4 + 8*len(pl.Prefetch) + 4 + 8*len(pl.Expiring) +
		4 + 8*len(pl.Remote) + 4 + 4*len(pl.RemoteOwner) + 4 + len(pl.RemoteNext) + 8
	for _, ids := range pl.ReplicaOut {
		n += 4 + 8*len(ids)
	}
	d := pl.Dec
	n += 8 + 4 + 4*len(d.Assign) + 8 + 4 + 4
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] == pl.Trainer {
			n += 4 + 4 + 4*len(ex.Dense) + 4 + 8*len(ex.Cat) + 4
		}
	}
	return n
}

// PlanBuf is the reusable home of one received plan: the plan, its header
// and its sparse batch, and every array they view. A decode into a PlanBuf
// reuses each array that is large enough, so a receiver that owns one
// buffer per plan it holds (a worker's plan ring) stops allocating once its
// plans have reached their size. The zero value is an empty buffer.
type PlanBuf struct {
	plan  core.Plan
	dec   core.Decision
	batch data.Batch

	owned, prefetch, expiring, remote []uint64
	replicaOut, replicas              [][]uint64 // the ReplicaOut header, and each list's array
	ttl, owners, assign               []int
	users                             []core.Ranks
	ownedNext, next                   []bool
	dense                             []float32
	cats                              []uint64
}

// Plan returns the plan last decoded into b.
func (b *PlanBuf) Plan() *core.Plan { return &b.plan }

// PlanSlots names the buffer each received plan decodes into: it returns
// plan iter's buffer, or nil for a fresh one. A receiver that owns its
// plans' buffers hands one to an endpoint that decodes plans off a wire
// (the TCP endpoint's DecodePlansInto); fabrics that pass plans by pointer
// have nothing to decode.
type PlanSlots func(iter int) *PlanBuf

// planIter reads the iteration of an encoded plan body without decoding
// it, so a receiver can name the buffer the plan decodes into.
func planIter(b []byte) (int, bool) {
	r := &wireReader{b: b}
	r.u32()
	p := int(r.u32())
	if r.err != nil || p < 1 || p > core.MaxTrainers {
		return 0, false
	}
	skip := func(size int) { r.take(r.count(size), size) }
	for _, size := range []int{8, 4, 8, 1, 8, 8} { // Owned, OwnedTTL, OwnedUsers, OwnedNext, Prefetch, Expiring
		skip(size)
	}
	for range p { // ReplicaOut
		skip(8)
	}
	skip(8) // Remote
	skip(4) // RemoteOwner
	skip(1) // RemoteNext
	r.u64() // ReplicaFrom
	x := int(r.u64())
	return x, r.err == nil
}

// plan decodes putPlan's layout into b. Everything the engine indexes by is
// validated here, so a hostile frame is an error, never a panic or a hang
// in the trainer: id lists strictly ascending, parallel slices of equal
// length, every list the owner walks against Owned a subset of it, ranks
// and rank sets below the trainer count, ReplicaFrom exactly the owners of
// Remote, and the examples exactly the destination's assigned ones, in
// batch order.
func (r *wireReader) plan(b *PlanBuf) *core.Plan {
	pl := &b.plan
	*pl = core.Plan{Trainer: int(r.u32())}
	p := int(r.u32())
	if r.err != nil || p < 1 || p > core.MaxTrainers || pl.Trainer >= p {
		r.invalid("plan trainer %d of %d", pl.Trainer, p)
		return pl
	}
	all := core.Ranks(1)<<uint(p) - 1
	if p == core.MaxTrainers {
		all = ^core.Ranks(0)
	}
	pl.Owned = r.ascending(&b.owned)
	pl.OwnedTTL = r.ints(&b.ttl)
	n := r.count(8)
	pl.OwnedUsers = list(&b.users, n)
	for i := range pl.OwnedUsers {
		u := core.Ranks(r.u64())
		if u == 0 || u&^all != 0 {
			r.invalid("plan user set %#x outside %d trainers", uint64(u), p)
		}
		pl.OwnedUsers[i] = u
	}
	pl.OwnedNext = r.bools(&b.ownedNext)
	if len(pl.OwnedTTL) != len(pl.Owned) || len(pl.OwnedUsers) != len(pl.Owned) || len(pl.OwnedNext) != len(pl.Owned) {
		r.invalid("plan owns %d ids with %d TTLs, %d user sets and %d flags", len(pl.Owned), len(pl.OwnedTTL), len(pl.OwnedUsers), len(pl.OwnedNext))
	}
	pl.Prefetch = r.subset(&b.prefetch, pl.Owned)
	pl.Expiring = r.subset(&b.expiring, pl.Owned)
	b.replicas = resized(b.replicas, p)
	pl.ReplicaOut = resized(b.replicaOut, p)
	b.replicaOut = pl.ReplicaOut
	for u := range pl.ReplicaOut {
		pl.ReplicaOut[u] = r.subset(&b.replicas[u], pl.Owned)
	}
	if len(pl.ReplicaOut[pl.Trainer]) != 0 {
		r.invalid("plan pushes replicas to its own trainer")
	}
	pl.Remote = r.ascending(&b.remote)
	pl.RemoteOwner = r.ints(&b.owners)
	var owners core.Ranks
	for _, o := range pl.RemoteOwner {
		if o >= p || o == pl.Trainer {
			r.invalid("plan routes a remote id to trainer %d", o)
		}
		owners |= 1 << uint(o)
	}
	pl.RemoteNext = r.bools(&b.next)
	if len(pl.RemoteOwner) != len(pl.Remote) || len(pl.RemoteNext) != len(pl.Remote) {
		r.invalid("plan has %d remote ids with %d owners and %d flags", len(pl.Remote), len(pl.RemoteOwner), len(pl.RemoteNext))
	}
	if pl.ReplicaFrom = core.Ranks(r.u64()); r.err == nil && pl.ReplicaFrom != owners {
		r.invalid("plan expects replicas from %#x, its remote ids are owned by %#x", uint64(pl.ReplicaFrom), uint64(owners))
	}

	d := &b.dec
	*d = core.Decision{Iter: int(r.u64())}
	pl.Dec = d
	d.Assign = r.ints(&b.assign)
	mine := 0
	for _, t := range d.Assign {
		if t >= p {
			r.invalid("example assigned to trainer %d of %d", t, p)
		}
		if t == pl.Trainer {
			mine++
		}
	}
	d.Batch = &b.batch
	d.Batch.Index = int(r.u64())
	// Sparse slots carry no bytes of their own; the assignment, 4 bytes per
	// slot, bounds the allocation.
	if full := int(r.u32()); r.err != nil || full != len(d.Assign) {
		r.invalid("batch of %d examples with %d assignments", full, len(d.Assign))
		return pl
	}
	d.Batch.Examples = resized(d.Batch.Examples, len(d.Assign))
	clear(d.Batch.Examples)
	if n = r.count(4); n != mine {
		r.invalid("%d examples for a trainer assigned %d", n, mine)
		return pl
	}
	// Every example's dense values decode into one array and its ids into
	// another, each example viewing its runs: a first pass over a copy of
	// the reader sums the run lengths (count proves each run's bytes are
	// present), the second decodes.
	scan, nd, nc := *r, 0, 0
	for i := 0; i < n && scan.err == nil; i++ {
		scan.u32()
		k := scan.count(4)
		scan.take(k, 4)
		nd += k
		k = scan.count(8)
		scan.take(k, 8)
		nc += k
		scan.u32()
	}
	if scan.err != nil {
		r.err = scan.err
		return pl
	}
	dense, cats := resized(b.dense, nd), resized(b.cats, nc)
	b.dense, b.cats = dense, cats
	prev := -1
	for i := 0; i < n && r.err == nil; i++ {
		idx := int(r.u32())
		if idx <= prev || idx >= len(d.Assign) || d.Assign[idx] != pl.Trainer {
			r.invalid("example %d out of order or not assigned to trainer %d", idx, pl.Trainer)
			return pl
		}
		prev = idx
		ex := data.Example{Dense: runIn(r, &dense, 4), Cat: runIn(r, &cats, 8)}
		ex.Label = r.f32()
		d.Batch.Examples[idx] = ex
	}
	return pl
}

// resized returns buf with length n, reallocated only when it is short.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// list returns a list of n values in *buf's array, which grows when short:
// nil when n is 0, as a fresh decode leaves an empty list.
func list[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	*buf = resized(*buf, n)
	return (*buf)[:n:n]
}

// runIn decodes a count-prefixed run of size-byte values into the front of
// *buf and advances *buf past it, so runs decoded in turn view one array.
// An empty run is nil, and a run longer than what is left of *buf fails the
// reader.
func runIn[T float32 | uint64](r *wireReader, buf *[]T, size int) []T {
	n := r.count(size)
	if n == 0 {
		return nil
	}
	if n > len(*buf) {
		r.fail()
		return nil
	}
	xs := (*buf)[:n:n]
	*buf = (*buf)[n:]
	copyLE(bytesOf(xs), r.take(n, size), size)
	return xs
}

// ascending reads a count-prefixed id list into *buf's array and fails the
// reader unless it is strictly ascending.
func (r *wireReader) ascending(buf *[]uint64) []uint64 {
	ids := r.u64sInto(buf)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			r.invalid("ids not strictly ascending")
			break
		}
	}
	return ids
}

// subset reads a strictly ascending id list into *buf's array and fails
// the reader unless every id is in of (itself ascending).
func (r *wireReader) subset(buf *[]uint64, of []uint64) []uint64 {
	ids := r.ascending(buf)
	j := 0
	for _, id := range ids {
		for j < len(of) && of[j] < id {
			j++
		}
		if j == len(of) || of[j] != id {
			r.invalid("id %d outside the plan's owned ids", id)
			break
		}
	}
	return ids
}

// --- link control requests and results ---

// putCtl writes a control request body, one layout for every op: the five
// partition arguments (each an int64, so any int crosses exactly), the
// epoch, a routing flag (1: the table follows in encodeRouting form), the
// id list, then the rows, each behind its own count. A Ctl encodes
// faithfully whatever its fields hold; checking them is the dispatcher's.
func putCtl(b []byte, c *Ctl) []byte {
	for _, v := range [...]int{c.Part, c.Of, c.Within, c.WithinOf, c.Replicate} {
		b = putU64(b, uint64(v))
	}
	b = putU64(b, c.Epoch)
	if c.Routing == nil {
		b = append(b, 0)
	} else {
		b = encodeRouting(append(b, 1), c.Routing)
	}
	b = putU64s(b, c.IDs)
	b = putU32(b, uint32(len(c.Rows)))
	for _, row := range c.Rows {
		b = putF32s(b, row)
	}
	return b
}

// ctlBuf is the reusable home of one connection's requests: each control
// request decodes into its Ctl, reusing the id, row and float arrays, and
// a fetch's or a write's ids into the same id array.
type ctlBuf struct {
	Ctl
	ids  []uint64
	rows [][]float32
	flat []float32
}

// ctl decodes a control request body (putCtl's layout) into b.Ctl with op.
// A routing table decodes fresh, since the server keeps it. Arguments are
// left unchecked; a body that does not parse, or has bytes left over,
// fails the reader.
func (r *wireReader) ctl(b *ctlBuf, op CtlOp) *Ctl {
	c := &b.Ctl
	*c = Ctl{Op: op}
	c.Part, c.Of, c.Within, c.WithinOf, c.Replicate = r.i64(), r.i64(), r.i64(), r.i64(), r.i64()
	c.Epoch = r.u64()
	switch r.u8() {
	case 0:
	case 1:
		c.Routing = r.routing()
	default:
		r.invalid("routing flag")
	}
	c.IDs = r.u64sInto(&b.ids)
	n := r.count(4)
	// Every row's floats fit in what is left of the body, so the rows view
	// one array that never regrows under them.
	flat := resized(b.flat, len(r.b)/4)
	b.flat = flat
	c.Rows = list(&b.rows, n)
	for i := range c.Rows {
		c.Rows[i] = runIn(r, &flat, 4)
	}
	if r.err == nil && len(r.b) > 0 {
		r.invalid("%d bytes after a control request", len(r.b))
	}
	return c
}

// trim drops arrays a one-off giant request grew, as reusable drops a
// giant frame.
func (b *ctlBuf) trim() {
	if 8*cap(b.ids) > maxPooledBuf || 4*cap(b.flat) > maxPooledBuf || 24*cap(b.rows) > maxPooledBuf {
		*b = ctlBuf{}
	}
}

// putCtlResult writes a control result, one layout for every op: N, the id
// list, then the rows as one flat matrix behind a single count.
func putCtlResult(b []byte, res *CtlResult) []byte {
	b = putU64(b, res.N)
	b = putU64s(b, res.IDs)
	n := 0
	for _, row := range res.Rows {
		n += len(row)
	}
	b = putU32(b, uint32(n))
	for _, row := range res.Rows {
		b = putF32sRaw(b, row)
	}
	return b
}

// --- primitive writers (append-style, little-endian) ---

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// grow extends b by n bytes and returns it plus the write offset — the
// bulk writers fill the region directly, skipping per-element appends. The
// region's old contents are left in place: every caller overwrites it.
func grow(b []byte, n int) ([]byte, int) {
	off := len(b)
	return slices.Grow(b, n)[:off+n], off
}

func putF32s(b []byte, xs []float32) []byte {
	b = putU32(b, uint32(len(xs)))
	return putF32sRaw(b, xs)
}

// putF32sRaw appends xs' elements without a count prefix — for callers that
// frame a whole matrix of known shape behind a single count.
func putF32sRaw(b []byte, xs []float32) []byte {
	b, off := grow(b, 4*len(xs))
	copyLE(b[off:], bytesOf(xs), 4)
	return b
}

func putF64s(b []byte, xs []float64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	copyLE(b[off:], bytesOf(xs), 8)
	return b
}

func putU64s(b []byte, xs []uint64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	copyLE(b[off:], bytesOf(xs), 8)
	return b
}

// putBools writes a count-prefixed run of flags, one byte (0 or 1) each.
func putBools(b []byte, xs []bool) []byte {
	b = putU32(b, uint32(len(xs)))
	for _, x := range xs {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// putInts writes a non-negative int slice (ranks, assignments) as u32s.
func putInts(b []byte, xs []int) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[off+4*i:], uint32(x))
	}
	return b
}

// --- primitive reader ---

// wireReader consumes an encoded payload body. The first decode error
// sticks and every later read returns a zero value without consuming bytes
// — load-bearing, not just convenient: count()'s allocation guard assumes a
// poisoned reader can never hand a decoder a garbage element count — so
// decoders need no per-field checks and the caller inspects err once at the
// end.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("transport: truncated payload")
	}
}

// invalid fails the reader on a well-framed value the encoder never writes.
func (r *wireReader) invalid(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: invalid payload: "+format, args...)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) f32() float32 { return math.Float32frombits(r.u32()) }

// i64 reads an int written as its int64 bit pattern.
func (r *wireReader) i64() int { return int(int64(r.u64())) }

// count reads a u32 element count and sanity-checks it against the bytes
// remaining (each element needs at least minElem bytes), so a corrupt frame
// cannot drive a huge allocation. The bulk slice readers below lean on the
// same guarantee from the other side: a non-zero count with minElem = the
// element width proves the elements' bytes are all present, so they carve
// the region off in one bounds check and decode without per-element error
// handling — the codec is the distributed hot path, and per-element checks
// were measurable in profiles.
func (r *wireReader) count(minElem int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(minElem) > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// take returns the next n*elem bytes as one region (count(elem) has already
// proven they exist) and advances the reader past them.
func (r *wireReader) take(n, elem int) []byte {
	b := r.b[:n*elem]
	r.b = r.b[n*elem:]
	return b
}

// f32sInto decodes a count-prefixed float32 vector into the caller's dst
// (a pooled row), failing the reader unless the count is exactly len(dst).
func (r *wireReader) f32sInto(dst []float32) bool {
	n := r.count(4)
	if r.err != nil || n != len(dst) {
		r.fail()
		return false
	}
	fillRow(dst, r.take(n, 4))
	return true
}

func (r *wireReader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	copyLE(bytesOf(xs), r.take(n, 8), 8)
	return xs
}

func (r *wireReader) u64s() []uint64 {
	var xs []uint64
	return r.u64sInto(&xs)
}

// u64sInto reads a count-prefixed id list into *buf's array, which grows
// when short, and returns it: nil when empty, as u64s returns.
func (r *wireReader) u64sInto(buf *[]uint64) []uint64 {
	xs := list(buf, r.count(8))
	copyLE(bytesOf(xs), r.take(len(xs), 8), 8)
	return xs
}

// bools reads putBools' layout into *buf's storage.
func (r *wireReader) bools(buf *[]bool) []bool {
	n := r.count(1)
	xs := list(buf, n)
	for i, c := range r.take(n, 1) {
		if c > 1 {
			r.invalid("flag byte %d", c)
		}
		xs[i] = c == 1
	}
	return xs
}

// ints reads a count-prefixed list of u32s (ranks, assignments) into
// *buf's array, which grows when short: nil when empty.
func (r *wireReader) ints(buf *[]int) []int {
	n := r.count(4)
	xs := list(buf, n)
	b := r.take(n, 4)
	for i := range xs {
		xs[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// --- fixed-width runs: one copy through a byte view ---

// bytesOf views the memory of a run of fixed-width values as bytes, so a
// run crosses the wire with one copy instead of a loop per element. It is
// the codec's one use of unsafe.
func bytesOf[T float32 | float64 | uint64](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(xs[0])))
}

// bigEndian reports a host whose memory order is not the wire's.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// copyLE copies size-byte words from src to dst, one side a native-order
// view (bytesOf) and the other little-endian wire bytes: a plain copy, then
// on a big-endian host a pass that reverses each word.
func copyLE(dst, src []byte, size int) {
	n := copy(dst, src)
	if bigEndian {
		swapWords(dst[:n], size)
	}
}

// swapWords reverses the byte order of every size-byte word (4 or 8) of b.
func swapWords(b []byte, size int) {
	if size == 4 {
		for i := 0; i+4 <= len(b); i += 4 {
			binary.LittleEndian.PutUint32(b[i:], binary.BigEndian.Uint32(b[i:]))
		}
		return
	}
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.BigEndian.Uint64(b[i:]))
	}
}
