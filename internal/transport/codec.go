package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// This file is the wire codec for everything that crosses a real network:
// the trainer-mesh payloads (replica pushes, delayed-sync flushes, oracle
// plans, collective contributions) and the framing shared with the
// trainer↔embedding-server link. Encoding is explicit little-endian, with
// plans in unsigned varints — no gob/json/reflection on the hot path — and
// deterministic: id runs travel strictly ascending, as their senders build
// them, so the same payload always produces the same bytes (the codec
// round-trip tests rely on it).
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
	// travel gap-coded (planWriter.plan); of its Decision only what a remote
	// trainer consumes travels (Iter, Assign, Batch — the plan itself
	// carries the needed-next flags of the rows it routes), and of the batch
	// only the destination's assigned examples — the decoded Batch keeps its
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

	// FusedCollMsg is one frame of a chunk-owned collective round, call
	// number Seq. The concatenation of a rank's dense-parameter segments
	// splits into one contiguous chunk per rank; both ends derive the split
	// from their own segments, so the frame carries no segment table. In the
	// reduce-scatter it is Origin's gradient floats over the receiver's
	// chunk (Data, an arena row) and Origin's float64 loss terms (Loss). In
	// the all-gather (Gather) it is Origin's updated parameters over
	// Origin's own chunk, Floats of them, XOR-coded against the chunk
	// Origin sent the round before (collective.Pack), which every receiver
	// holds: Packed, a pooled frame buffer (GetBytes). A gather frame
	// carries no Data and no loss terms.
	FusedCollMsg struct {
		Seq    uint64
		Origin int
		Gather bool
		Data   []float32
		Loss   []float64
		Floats int
		Packed []byte
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
	return appendPayload(make([]byte, 0, PayloadSize(p)), p)
}

// PayloadSize is the exact length EncodePayload writes for p: the size the
// engine declares for every mesh send, so each class is priced as the
// bytes it encodes on every fabric, and the TCP endpoint takes each frame
// from the pool at its final size. Unknown payload types are 0.
func PayloadSize(p any) int {
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
		if m.Gather {
			return 1 + 8 + 4 + 1 + 4 + len(m.Packed)
		}
		return 1 + 8 + 4 + 1 + 4 + 4*len(m.Data) + 4 + 8*len(m.Loss)
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
		if !m.Gather {
			b = append(b, 0)
			b = putF32s(b, m.Data)
			b = putF64s(b, m.Loss)
			break
		}
		if len(m.Data) != 0 || len(m.Loss) != 0 {
			panic("transport: all-gather frame with raw floats or loss terms")
		}
		b = append(b, 1)
		b = putU32(b, uint32(m.Floats))
		b = append(b, m.Packed...)
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
		// The buffers come from the pools the senders fill theirs from: a
		// reduce-scatter chunk's floats from the per-length arena, a gather
		// chunk's coding from the frame buffers. The collective returns them
		// once folded or unpacked.
		m := FusedCollMsg{Seq: r.u64(), Origin: int(r.u32())}
		switch g := r.u8(); g {
		case 0:
			if k := r.count(4); k > 0 {
				m.Data = Rows(k).Get()
				fillRow(m.Data, r.take(k, 4))
			}
			m.Loss = r.f64s()
		case 1:
			m.Gather = true
			m.Floats, m.Packed = r.packed()
		default:
			r.invalid("collective phase %d", g)
		}
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

// packed reads an all-gather chunk: its float count, then its coding to
// the end of the payload, which must be exactly a coding of that many
// floats (collective.CheckPacked) before it is copied anywhere.
func (r *wireReader) packed() (int, []byte) {
	n := int(r.u32())
	if r.err != nil {
		return 0, nil
	}
	if err := collective.CheckPacked(r.b, n); err != nil {
		r.invalid("all-gather chunk: %v", err)
		return 0, nil
	}
	var b []byte
	if len(r.b) > 0 {
		b = append(getBuf(len(r.b)), r.b...)
	}
	r.b = r.b[len(r.b):]
	return n, b
}

// fillRow decodes len(row) float32 bit patterns from reg.
func fillRow(row []float32, reg []byte) {
	copyLE(bytesOf(row), reg, 4)
}

// putPlan writes a plan in the layout planWriter.plan walks.
func putPlan(b []byte, pl *core.Plan) []byte {
	w := planWriter{b: b}
	w.plan(pl)
	return w.b
}

// planSize is the exact length putPlan writes for pl: the same walk,
// counting bytes instead of writing them.
func planSize(pl *core.Plan) int {
	w := planWriter{count: true}
	w.plan(pl)
	return w.n
}

// planWriter walks a plan in wire order and appends its bytes to b, or,
// when count is set, only adds their number to n, so the layout has one
// definition and putPlan and planSize cannot disagree.
type planWriter struct {
	b     []byte
	n     int
	count bool
}

// plan writes pl. Every integer is an unsigned varint, and every list
// travels as its length, then gaps:
//
//	Dec.Iter, Trainer, P (the trainer count, len(ReplicaOut))
//	Owned                ids: each the gap from the one before (the first from 0)
//	OwnedTTL             per owned id, TTL − Iter
//	OwnedUsers           per owned id, its rank set
//	OwnedNext            bitmap, one bit per owned id
//	Prefetch, Expiring   positions in Owned: each the gap from the one before
//	ReplicaOut[0..P)     positions in Owned, likewise
//	Remote               ids, gap-coded as Owned
//	RemoteOwner          per remote id, its owner
//	RemoteNext           bitmap, one bit per remote id
//	Dec.Assign           length, then one rank per example
//	Dec.Batch.Index
//	per example assigned to Trainer, in batch order:
//	  dense count, raw f32s; id count, ids; raw f32 label
//
// A bitmap packs eight flags to a byte, low bit first, and pads its last
// byte with zeros. ReplicaFrom does not travel: it is the set of Remote's
// owners. Neither does an example's index, nor the example count: the
// examples are exactly the destination's in Assign, in batch order. Lists
// that are not ascending, a position list naming an id outside Owned, or
// parallel lists of different lengths panic: the plan was not cut by
// Decision.Plans, a programming error the encoder reports at the first
// Send.
func (w *planWriter) plan(pl *core.Plan) {
	d := pl.Dec
	if len(pl.OwnedTTL) != len(pl.Owned) || len(pl.OwnedUsers) != len(pl.Owned) || len(pl.OwnedNext) != len(pl.Owned) ||
		len(pl.RemoteOwner) != len(pl.Remote) || len(pl.RemoteNext) != len(pl.Remote) || len(d.Assign) != len(d.Batch.Examples) {
		panic(fmt.Sprintf("transport: plan %d of iteration %d has parallel lists of different lengths", pl.Trainer, d.Iter))
	}
	w.uvarint(uint64(d.Iter))
	w.uvarint(uint64(pl.Trainer))
	w.uvarint(uint64(len(pl.ReplicaOut)))
	w.ids(pl.Owned)
	for _, ttl := range pl.OwnedTTL {
		w.uvarint(uint64(ttl - d.Iter))
	}
	for _, u := range pl.OwnedUsers {
		w.uvarint(uint64(u))
	}
	w.bitmap(pl.OwnedNext)
	w.positions(pl.Prefetch, pl.Owned)
	w.positions(pl.Expiring, pl.Owned)
	for _, ids := range pl.ReplicaOut {
		w.positions(ids, pl.Owned)
	}
	w.ids(pl.Remote)
	for _, o := range pl.RemoteOwner {
		w.uvarint(uint64(o))
	}
	w.bitmap(pl.RemoteNext)
	w.uvarint(uint64(len(d.Assign)))
	for _, t := range d.Assign {
		w.uvarint(uint64(t))
	}
	w.uvarint(uint64(d.Batch.Index))
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != pl.Trainer {
			continue
		}
		w.uvarint(uint64(len(ex.Dense)))
		w.f32s(ex.Dense)
		w.uvarint(uint64(len(ex.Cat)))
		for _, id := range ex.Cat {
			w.uvarint(id)
		}
		w.f32(ex.Label)
	}
}

func (w *planWriter) uvarint(v uint64) {
	if w.count {
		w.n += uvarintLen(v)
	} else {
		w.b = binary.AppendUvarint(w.b, v)
	}
}

// f32s writes xs raw, without a length.
func (w *planWriter) f32s(xs []float32) {
	if w.count {
		w.n += 4 * len(xs)
	} else {
		w.b = putF32sRaw(w.b, xs)
	}
}

func (w *planWriter) f32(v float32) {
	if w.count {
		w.n += 4
	} else {
		w.b = putF32(w.b, v)
	}
}

// ids writes a strictly ascending id list as its length and gaps.
func (w *planWriter) ids(xs []uint64) {
	w.uvarint(uint64(len(xs)))
	var prev uint64
	for i, id := range xs {
		if i > 0 && id <= prev {
			panic(fmt.Sprintf("transport: plan id %d after %d", id, prev))
		}
		w.uvarint(id - prev)
		prev = id
	}
}

// positions writes xs, a strictly ascending subset of owned, as its length
// and the gaps between its ids' positions in owned.
func (w *planWriter) positions(xs, owned []uint64) {
	w.uvarint(uint64(len(xs)))
	at, prev := 0, 0
	for _, id := range xs {
		for at < len(owned) && owned[at] < id {
			at++
		}
		if at == len(owned) || owned[at] != id {
			panic(fmt.Sprintf("transport: plan lists id %d outside its owned ids, or out of order", id))
		}
		w.uvarint(uint64(at - prev))
		prev = at
		at++
	}
}

// bitmap writes xs eight flags to a byte, low bit first.
func (w *planWriter) bitmap(xs []bool) {
	if w.count {
		w.n += (len(xs) + 7) / 8
		return
	}
	var c byte
	for i, x := range xs {
		if x {
			c |= 1 << (i & 7)
		}
		if i&7 == 7 || i == len(xs)-1 {
			w.b = append(w.b, c)
			c = 0
		}
	}
}

// uvarintLen is the length binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
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

// planIter reads the iteration of an encoded plan body, its first field,
// so a receiver can name the buffer the plan decodes into.
func planIter(b []byte) (int, bool) {
	r := wireReader{b: b}
	x := r.int()
	return x, r.err == nil
}

// plan decodes planWriter.plan's layout into b. Everything the engine
// indexes by is validated here, so a hostile frame is an error, never a
// panic or a hang in the trainer. The layout makes most of it hold by
// construction: id lists are strictly ascending, parallel lists share
// their length, every list the owner walks against Owned is a subset of it,
// ReplicaFrom is exactly the owners of Remote, and the examples are exactly
// the destination's assigned ones, in batch order. What is left is
// checked: ranks and rank sets below the trainer count, no replica list
// for the plan's own trainer, and a canonical encoding — no overlong
// varint, no zero gap after a list's first, no position past Owned, no set
// padding bit — so an accepted frame re-encodes to itself.
func (r *wireReader) plan(b *PlanBuf) *core.Plan {
	d := &b.dec
	*d = core.Decision{Iter: r.int()}
	pl := &b.plan
	*pl = core.Plan{Dec: d, Trainer: r.int()}
	p := r.int()
	if r.err != nil || p < 1 || p > core.MaxTrainers || pl.Trainer >= p {
		r.invalid("plan trainer %d of %d", pl.Trainer, p)
		return pl
	}
	all := core.Ranks(1)<<uint(p) - 1
	if p == core.MaxTrainers {
		all = ^core.Ranks(0)
	}
	pl.Owned = r.ids(&b.owned)
	n := len(pl.Owned)
	pl.OwnedTTL = list(&b.ttl, n)
	for i := range pl.OwnedTTL {
		g := r.int()
		if g > math.MaxInt-d.Iter {
			r.invalid("TTL %d iterations past %d", g, d.Iter)
		}
		pl.OwnedTTL[i] = d.Iter + g
	}
	pl.OwnedUsers = list(&b.users, n)
	for i := range pl.OwnedUsers {
		u := core.Ranks(r.uvarint())
		if r.err == nil && (u == 0 || u&^all != 0) {
			r.invalid("plan user set %#x outside %d trainers", uint64(u), p)
		}
		pl.OwnedUsers[i] = u
	}
	pl.OwnedNext = r.bitmap(&b.ownedNext, n)
	pl.Prefetch = r.positions(&b.prefetch, pl.Owned)
	pl.Expiring = r.positions(&b.expiring, pl.Owned)
	b.replicas = resized(b.replicas, p)
	pl.ReplicaOut = resized(b.replicaOut, p)
	b.replicaOut = pl.ReplicaOut
	for u := range pl.ReplicaOut {
		pl.ReplicaOut[u] = r.positions(&b.replicas[u], pl.Owned)
	}
	if len(pl.ReplicaOut[pl.Trainer]) != 0 {
		r.invalid("plan pushes replicas to its own trainer")
	}
	pl.Remote = r.ids(&b.remote)
	pl.RemoteOwner = list(&b.owners, len(pl.Remote))
	for i := range pl.RemoteOwner {
		o := r.int()
		if o >= p || o == pl.Trainer {
			r.invalid("plan routes a remote id to trainer %d", o)
		}
		pl.RemoteOwner[i] = o
		pl.ReplicaFrom |= 1 << uint(o)
	}
	pl.RemoteNext = r.bitmap(&b.next, len(pl.Remote))

	d.Assign = list(&b.assign, r.length(1))
	for i := range d.Assign {
		t := r.int()
		if t >= p {
			r.invalid("example assigned to trainer %d of %d", t, p)
		}
		d.Assign[i] = t
	}
	d.Batch = &b.batch
	d.Batch.Index = r.int()
	d.Batch.Examples = resized(d.Batch.Examples, len(d.Assign))
	clear(d.Batch.Examples)
	if r.err != nil {
		return pl
	}
	// Every example's dense values decode into one array and its ids into
	// another. An example first views its runs in the arrays as they grow;
	// once they stop growing, a second pass points it at the same spans of
	// the final arrays.
	dense, cats := b.dense[:0], b.cats[:0]
	for i, t := range d.Assign {
		if t != pl.Trainer || r.err != nil {
			continue
		}
		ex := &d.Batch.Examples[i]
		k := r.length(4)
		at := len(dense)
		dense = slices.Grow(dense, k)[:at+k]
		copyLE(bytesOf(dense[at:]), r.take(k, 4), 4)
		ex.Dense = dense[at:]
		k = r.length(1)
		at = len(cats)
		cats = slices.Grow(cats, k)[:at+k]
		for j := at; j < len(cats); j++ {
			cats[j] = r.uvarint()
		}
		ex.Cat = cats[at:]
		ex.Label = r.f32()
	}
	b.dense, b.cats = dense, cats
	nd, nc := 0, 0
	for i, t := range d.Assign {
		if t == pl.Trainer {
			ex := &d.Batch.Examples[i]
			ex.Dense, nd = span(dense, nd, len(ex.Dense))
			ex.Cat, nc = span(cats, nc, len(ex.Cat))
		}
	}
	return pl
}

// span returns the n values of xs from at on (nil when n is 0) and where
// the next span starts.
func span[T any](xs []T, at, n int) ([]T, int) {
	if n == 0 {
		return nil, at
	}
	return xs[at : at+n : at+n], at + n
}

// resized returns buf with length n, reallocated only when it is short,
// and then with a quarter more room: a plan buffer meets a new largest
// plan now and then all run long, and without the room each such plan
// would reallocate every list it outgrew.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
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

// ids reads ids' layout into *buf's array: strictly ascending ids as gaps,
// the first from 0 and every later one non-zero, none past 2⁶⁴ − 1.
func (r *wireReader) ids(buf *[]uint64) []uint64 {
	xs := list(buf, r.length(1))
	var id uint64
	for i := range xs {
		g := r.uvarint()
		if i > 0 && g == 0 || id+g < id {
			r.invalid("plan ids not strictly ascending")
		}
		id += g
		xs[i] = id
	}
	return xs
}

// positions reads positions' layout into *buf's array as the ids of owned
// at those positions: gaps, the first from 0 and every later one non-zero,
// and no position past owned.
func (r *wireReader) positions(buf *[]uint64, owned []uint64) []uint64 {
	n := r.length(1)
	if n > len(owned) {
		r.invalid("plan lists %d of its %d owned ids", n, len(owned))
		return nil
	}
	xs := list(buf, n)
	var at uint64
	for i := range xs {
		g := r.uvarint()
		if i > 0 && g == 0 {
			r.invalid("plan repeats an owned position")
			return xs
		}
		if g >= uint64(len(owned))-at {
			r.invalid("plan position past its %d owned ids", len(owned))
			return xs
		}
		at += g
		xs[i] = owned[at]
	}
	return xs
}

// bitmap reads bitmap's layout of n flags into *buf's array, refusing a
// set padding bit.
func (r *wireReader) bitmap(buf *[]bool, n int) []bool {
	xs := list(buf, n)
	k := (n + 7) / 8
	if r.err != nil || len(r.b) < k {
		r.fail()
		return xs
	}
	bs := r.take(k, 1)
	for i := range xs {
		xs[i] = bs[i>>3]>>(i&7)&1 != 0
	}
	if n%8 != 0 && bs[k-1]>>(n%8) != 0 {
		r.invalid("bitmap padding bits set")
	}
	return xs
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

// uvarint reads an unsigned varint, refusing one longer than its value
// needs (a last byte of 0) or past 64 bits, so every value has exactly one
// encoding.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := uint64(r.b[0])
		r.b = r.b[1:]
		return v
	}
	var v uint64
	for i, c := range r.b {
		if i == binary.MaxVarintLen64-1 && c > 1 {
			r.invalid("varint past 64 bits")
			return 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 {
				r.invalid("overlong varint")
				return 0
			}
			r.b = r.b[i+1:]
			return v
		}
	}
	r.fail()
	return 0
}

// int reads a varint that must fit an int: an iteration, a rank, a count.
func (r *wireReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.invalid("varint %d past the int range", v)
		return 0
	}
	return int(v)
}

// length reads a varint list length and checks it against the bytes left,
// each element taking at least size of them, so a corrupt frame cannot
// drive an allocation past a constant multiple of its own size.
func (r *wireReader) length(size int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

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
