package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// This file is the wire codec for everything that crosses a real network:
// the trainer-mesh payloads (replica pushes, delayed-sync flushes, oracle
// plans, collective contributions) and the framing shared with the
// trainer↔embedding-server link. Encoding is explicit little-endian — no
// gob/json/reflection on the hot path — and deterministic: map-typed fields
// are written in sorted key order, so the same payload always produces the
// same bytes (the codec round-trip tests rely on it).
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
	// non-owner whose examples read them (LRPP logical replication).
	ReplicaMsg struct {
		Iter int
		Rows map[uint64][]float32
	}

	// SyncMsg is one delayed-sync flush: one sender's gradient partials for
	// one iteration — per owned id, the sum of the sender's own examples'
	// gradients for that row, accumulated in its sub-batch order. The sender
	// is MeshMsg.From; the owner folds an (id, iteration)'s partials in rank
	// order from zero, the rule dense gradients follow. All partials of one
	// flush share one width. Like replica rows, the map and its vectors are
	// pooled (GetRowMap / Rows(dim)) and transfer to the receiver, which
	// recycles them once merged. It only travels inside a SyncBatchMsg.
	SyncMsg struct {
		Iter     int
		Partials map[uint64][]float32
	}

	// SyncBatchMsg coalesces every delayed-sync flush one sender owes one
	// owner at a flush pass — typically iteration x's critical
	// contributions plus iteration x−lag's deferred ones — into a single
	// frame: one per-row entry table per iteration instead of one frame
	// per (iteration, criticality).
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
// can be taken from the pool at its final size. The declared byte counts
// the engine charges are a model of the wire, not this: replicaMsgBytes,
// for one, omits each row's count and the header's tag and row count.
func payloadSize(p any) int {
	switch m := p.(type) {
	case ReplicaMsg:
		n := 1 + 8 + 4
		for _, row := range m.Rows {
			n += 8 + 4 + 4*len(row)
		}
		return n
	case SyncBatchMsg:
		n := 1 + 4
		for _, f := range m.Flushes {
			n += 8 + 1 + 4 + 4
			for _, g := range f.Partials {
				n += 8 + 4*len(g)
			}
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
		b = putU32(b, uint32(len(m.Rows)))
		for _, id := range sortedIDKeys(m.Rows) {
			b = putU64(b, id)
			b = putF32s(b, m.Rows[id])
		}
	case SyncBatchMsg:
		b = append(b, tagSyncBatch)
		b = putU32(b, uint32(len(m.Flushes)))
		for _, f := range m.Flushes {
			b = putSyncBody(b, f)
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
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	r := &wireReader{b: b[1:]}
	var out any
	switch b[0] {
	case tagReplica:
		m := ReplicaMsg{Iter: int(r.u64())}
		n := r.count(8)
		// The map and rows come from the pooled allocator, mirroring the
		// in-process path where the sender builds them there; the LRPP
		// receiver releases both once the rows are consumed.
		m.Rows = GetRowMap()
		var arena *RowArena
		var prev uint64
		for i := 0; i < n; i++ {
			id := r.u64()
			if i > 0 && id <= prev {
				r.invalid("replica row ids not strictly ascending")
			}
			prev = id
			ne := r.count(4)
			if ne == 0 || r.err != nil {
				m.Rows[id] = nil
				continue
			}
			if arena == nil || arena.dim != ne {
				arena = Rows(ne)
			}
			row := arena.Get()
			fillRow(row, r.take(ne, 4))
			m.Rows[id] = row
		}
		out = m
	case tagSyncBatch:
		n := r.count(17)
		m := SyncBatchMsg{Flushes: make([]SyncMsg, 0, n)}
		for i := 0; i < n; i++ {
			m.Flushes = append(m.Flushes, r.sync())
		}
		out = m
	case tagPlan:
		out = PlanMsg{Plan: r.plan()}
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

// putSyncBody writes one iteration's flush: iteration, a reserved byte
// (always 0; it was the float16 flag), the shared partial width, then the
// id → partial table in sorted id order with the vectors raw (no
// per-vector count). The size is exactly 17 + n·(8 + 4·dim) bytes — what
// the engine declares to the mesh.
func putSyncBody(b []byte, m SyncMsg) []byte {
	b = putU64(b, uint64(m.Iter))
	b = append(b, 0)
	ids := sortedIDKeys(m.Partials)
	dim := 0
	if len(ids) > 0 {
		dim = len(m.Partials[ids[0]])
	}
	b = putU32(b, uint32(dim))
	b = putU32(b, uint32(len(ids)))
	for _, id := range ids {
		g := m.Partials[id]
		if len(g) != dim {
			panic(fmt.Sprintf("transport: sync partial for id %d has width %d, flush width is %d", id, len(g), dim))
		}
		b = putU64(b, id)
		b = putF32sRaw(b, g)
	}
	return b
}

// sync reads one iteration's flush (the inverse of putSyncBody) into the
// pooled map and arena rows the in-process senders draw from.
func (r *wireReader) sync() SyncMsg {
	m := SyncMsg{Iter: int(r.u64())}
	if c := r.u8(); c != 0 {
		r.invalid("sync reserved byte %d", c)
	}
	dim := int(r.u32())
	n := r.count(8 + 4*dim)
	m.Partials = GetRowMap()
	if (n == 0) != (dim == 0) { // the encoder writes width 0 exactly for an empty table
		r.fail()
	}
	if n == 0 || r.err != nil {
		return m
	}
	arena := Rows(dim)
	var prev uint64
	for i := 0; i < n; i++ {
		id := r.u64()
		if i > 0 && id <= prev {
			r.invalid("sync partial ids not strictly ascending")
		}
		prev = id
		g := arena.Get()
		fillRow(g, r.take(dim, 4))
		m.Partials[id] = g
	}
	return m
}

// fillRow decodes len(row) float32 bit patterns from reg.
func fillRow(row []float32, reg []byte) {
	for k := range row {
		row[k] = math.Float32frombits(binary.LittleEndian.Uint32(reg[4*k:]))
	}
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
	b = putU64s(b, pl.Prefetch)
	b = putU64s(b, pl.Expiring)
	for _, ids := range pl.ReplicaOut {
		b = putU64s(b, ids)
	}
	b = putU64s(b, pl.Remote)
	b = putInts(b, pl.RemoteOwner)
	b = putU32(b, uint32(len(pl.RemoteNext)))
	for _, next := range pl.RemoteNext {
		if next {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
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
		4 + 8*len(pl.Owned) + 4 + 4*len(pl.OwnedTTL) + 4 + 8*len(pl.OwnedUsers) +
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

// plan decodes putPlan's layout. Everything the engine indexes by is
// validated here, so a hostile frame is an error, never a panic or a hang
// in the trainer: id lists strictly ascending, parallel slices of equal
// length, every list the owner walks against Owned a subset of it, ranks
// and rank sets below the trainer count, ReplicaFrom exactly the owners of
// Remote, and the examples exactly the destination's assigned ones, in
// batch order.
func (r *wireReader) plan() *core.Plan {
	pl := &core.Plan{Trainer: int(r.u32())}
	p := int(r.u32())
	if r.err != nil || p < 1 || p > core.MaxTrainers || pl.Trainer >= p {
		r.invalid("plan trainer %d of %d", pl.Trainer, p)
		return pl
	}
	all := core.Ranks(1)<<uint(p) - 1
	if p == core.MaxTrainers {
		all = ^core.Ranks(0)
	}
	pl.Owned = r.ascending()
	pl.OwnedTTL = r.ints()
	n := r.count(8)
	pl.OwnedUsers = make([]core.Ranks, n)
	for i := range pl.OwnedUsers {
		u := core.Ranks(r.u64())
		if u == 0 || u&^all != 0 {
			r.invalid("plan user set %#x outside %d trainers", uint64(u), p)
		}
		pl.OwnedUsers[i] = u
	}
	if len(pl.OwnedTTL) != len(pl.Owned) || len(pl.OwnedUsers) != len(pl.Owned) {
		r.invalid("plan owns %d ids with %d TTLs and %d user sets", len(pl.Owned), len(pl.OwnedTTL), len(pl.OwnedUsers))
	}
	pl.Prefetch = r.subset(pl.Owned)
	pl.Expiring = r.subset(pl.Owned)
	pl.ReplicaOut = make([][]uint64, p)
	for u := range pl.ReplicaOut {
		pl.ReplicaOut[u] = r.subset(pl.Owned)
	}
	if len(pl.ReplicaOut[pl.Trainer]) != 0 {
		r.invalid("plan pushes replicas to its own trainer")
	}
	pl.Remote = r.ascending()
	pl.RemoteOwner = r.ints()
	var owners core.Ranks
	for _, o := range pl.RemoteOwner {
		if o >= p || o == pl.Trainer {
			r.invalid("plan routes a remote id to trainer %d", o)
		}
		owners |= 1 << uint(o)
	}
	n = r.count(1)
	if n > 0 {
		pl.RemoteNext = make([]bool, n)
		for i, c := range r.take(n, 1) {
			if c > 1 {
				r.invalid("plan needed-next flag %d", c)
			}
			pl.RemoteNext[i] = c == 1
		}
	}
	if len(pl.RemoteOwner) != len(pl.Remote) || len(pl.RemoteNext) != len(pl.Remote) {
		r.invalid("plan has %d remote ids with %d owners and %d flags", len(pl.Remote), len(pl.RemoteOwner), len(pl.RemoteNext))
	}
	if pl.ReplicaFrom = core.Ranks(r.u64()); r.err == nil && pl.ReplicaFrom != owners {
		r.invalid("plan expects replicas from %#x, its remote ids are owned by %#x", uint64(pl.ReplicaFrom), uint64(owners))
	}

	d := &core.Decision{Iter: int(r.u64())}
	d.Assign = r.ints()
	mine := 0
	for _, t := range d.Assign {
		if t >= p {
			r.invalid("example assigned to trainer %d of %d", t, p)
		}
		if t == pl.Trainer {
			mine++
		}
	}
	d.Batch = &data.Batch{Index: int(r.u64())}
	// Sparse slots carry no bytes of their own; the assignment, 4 bytes per
	// slot, bounds the allocation.
	if full := int(r.u32()); r.err != nil || full != len(d.Assign) {
		r.invalid("batch of %d examples with %d assignments", full, len(d.Assign))
		return pl
	}
	d.Batch.Examples = make([]data.Example, len(d.Assign))
	if n = r.count(4); n != mine {
		r.invalid("%d examples for a trainer assigned %d", n, mine)
		return pl
	}
	prev := -1
	for i := 0; i < n && r.err == nil; i++ {
		idx := int(r.u32())
		if idx <= prev || idx >= len(d.Assign) || d.Assign[idx] != pl.Trainer {
			r.invalid("example %d out of order or not assigned to trainer %d", idx, pl.Trainer)
			return pl
		}
		prev = idx
		ex := data.Example{Dense: r.f32s(), Cat: r.u64s()}
		ex.Label = r.f32()
		d.Batch.Examples[idx] = ex
	}
	pl.Dec = d
	return pl
}

// ascending reads a count-prefixed id list and fails the reader unless it
// is strictly ascending.
func (r *wireReader) ascending() []uint64 {
	ids := r.u64s()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			r.invalid("ids not strictly ascending")
			break
		}
	}
	return ids
}

// subset reads a strictly ascending id list and fails the reader unless
// every id is in of (itself ascending).
func (r *wireReader) subset(of []uint64) []uint64 {
	ids := r.ascending()
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
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(x))
	}
	return b
}

func putF64s(b []byte, xs []float64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
	}
	return b
}

func putU64s(b []byte, xs []uint64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[off+8*i:], x)
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

// count reads a u32 element count and sanity-checks it against the bytes
// remaining (each element needs at least minElem bytes), so a corrupt frame
// cannot drive a huge allocation. The bulk slice readers below lean on the
// same guarantee from the other side: a non-zero count with minElem = the
// element width proves the elements' bytes are all present, so they carve
// the region off in one bounds check and decode without per-element error
// handling — the codec is the distributed hot path, and per-element checks
// were measurable in profiles.
func (r *wireReader) count(minElem int) int {
	n := int(r.u32())
	if r.err == nil && minElem > 0 && n > len(r.b)/minElem {
		r.fail()
		return 0
	}
	return n
}

// take returns the next n*elem bytes as one region (count(elem) has already
// proven they exist) and advances the reader past them.
func (r *wireReader) take(n, elem int) []byte {
	b := r.b[:n*elem]
	r.b = r.b[n*elem:]
	return b
}

func (r *wireReader) f32s() []float32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	b := r.take(n, 4)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
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
	b := r.take(n, 8)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

func (r *wireReader) u64s() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	b := r.take(n, 8)
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return xs
}

func (r *wireReader) ints() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	b := r.take(n, 4)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// --- sorted-key helpers (deterministic map encoding) ---

func sortedIDKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
