package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// testPlan is a consistent trainer-1 plan of a P=3 decision.
func testPlan() *core.Plan {
	return &core.Plan{
		Trainer:     1,
		Owned:       []uint64{3, 9, 27},
		OwnedTTL:    []int{5, 4, 4},
		OwnedUsers:  []core.Ranks{0b011, 0b110, 0b010},
		Prefetch:    []uint64{3, 27},
		Expiring:    []uint64{9, 27},
		ReplicaOut:  [][]uint64{{3}, nil, {9}},
		Remote:      []uint64{4, 8},
		RemoteOwner: []int{0, 2},
		RemoteNext:  []bool{true, false},
		ReplicaFrom: 0b101,
		Dec: &core.Decision{
			Iter:   4,
			Assign: []int{0, 1, 1, 2},
			Batch: &data.Batch{
				Index: 4,
				Examples: []data.Example{
					{Dense: []float32{0.5, -1}, Cat: []uint64{3, 4}, Label: 1},
					{Dense: []float32{2, 3}, Cat: []uint64{9, 8}, Label: 0},
					{Dense: []float32{-0.25, 0}, Cat: []uint64{3, 8}, Label: 1},
					{Dense: []float32{1, 1}, Cat: []uint64{27, 4}, Label: 0},
				},
			},
		},
	}
}

// TestCodecRoundTrip pins the little-endian codec: every wire payload type
// decodes back to a deep-equal value, including map fields and the nested
// plan/decision/batch structure.
func TestCodecRoundTrip(t *testing.T) {
	plan := testPlan()
	cases := []any{
		ReplicaMsg{Iter: 7, Rows: map[uint64][]float32{
			12: {1, 2.5, -3},
			99: {0, -0.125, 42},
		}},
		// Coalesced sync flushes, id → partial: iterations out of order, and
		// an empty table.
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Partials: map[uint64][]float32{
				2: {0.5, 0.25},
			}},
			{Iter: 3, Partials: map[uint64][]float32{
				2: {0.1, -4},
				8: {7, -2e-5},
			}},
			{Iter: 5, Partials: map[uint64][]float32{}},
		}},
		PlanMsg{Plan: plan},
		FusedCollMsg{Seq: 43, Origin: 2,
			Segs: [][]float32{{1, 2, 3}, {-0.5}, {4, 5}},
			Loss: []float64{0.693147}},
		RawMsg("hello mesh"),
	}
	for _, in := range cases {
		enc := EncodePayload(in)
		if n := payloadSize(in); n != len(enc) {
			t.Fatalf("%T: payloadSize %d, encoding is %d bytes", in, n, len(enc))
		}
		out, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", in, err)
		}
		if pm, ok := in.(PlanMsg); ok {
			// Pointer equality can't hold; compare the pointed-to values.
			// The batch arrives sparse: full length, but only the
			// destination trainer's assigned examples populated.
			got := out.(PlanMsg)
			wantBatch := data.Batch{
				Index:    pm.Plan.Dec.Batch.Index,
				Examples: make([]data.Example, len(pm.Plan.Dec.Batch.Examples)),
			}
			for i, ex := range pm.Plan.Dec.Batch.Examples {
				if pm.Plan.Dec.Assign[i] == pm.Plan.Trainer {
					wantBatch.Examples[i] = ex
				}
			}
			if !reflect.DeepEqual(wantBatch, *got.Plan.Dec.Batch) {
				t.Fatalf("plan batch round trip:\n want %+v\n out  %+v", wantBatch, *got.Plan.Dec.Batch)
			}
			pmDec, gotDec := *pm.Plan.Dec, *got.Plan.Dec
			pmDec.Batch, gotDec.Batch = nil, nil
			if !reflect.DeepEqual(pmDec, gotDec) {
				t.Fatalf("plan decision round trip:\n in  %+v\n out %+v", pmDec, gotDec)
			}
			pmPl, gotPl := *pm.Plan, *got.Plan
			pmPl.Dec, gotPl.Dec = nil, nil
			if !reflect.DeepEqual(pmPl, gotPl) {
				t.Fatalf("plan round trip:\n in  %+v\n out %+v", pmPl, gotPl)
			}
			continue
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip:\n in  %+v (%T)\n out %+v (%T)", in, in, out, out)
		}
	}
}

// TestPlanDecodeRejectsHostile: a plan frame the encoder could not have
// written from a consistent plan — unsorted or duplicate ids, parallel
// slices of different lengths, a rank outside the trainer count, a list the
// owner walks against Owned that leaves it, an example outside the batch or
// not the destination's — is an error, never a plan the engine would
// panic or hang on.
func TestPlanDecodeRejectsHostile(t *testing.T) {
	mutations := map[string]func(pl *core.Plan){
		"unsorted owned": func(pl *core.Plan) { pl.Owned = []uint64{9, 3, 27} },
		"duplicate remote": func(pl *core.Plan) {
			pl.Remote, pl.RemoteOwner, pl.RemoteNext = []uint64{4, 4}, []int{0, 0}, []bool{true, true}
		},
		"unsorted replica list":  func(pl *core.Plan) { pl.ReplicaOut[2] = []uint64{9, 3} },
		"short ttl slice":        func(pl *core.Plan) { pl.OwnedTTL = pl.OwnedTTL[:2] },
		"long user slice":        func(pl *core.Plan) { pl.OwnedUsers = append(pl.OwnedUsers, 1) },
		"short owner slice":      func(pl *core.Plan) { pl.RemoteOwner = pl.RemoteOwner[:1] },
		"short next slice":       func(pl *core.Plan) { pl.RemoteNext = nil },
		"owner out of range":     func(pl *core.Plan) { pl.RemoteOwner = []int{0, 3} },
		"owner is self":          func(pl *core.Plan) { pl.RemoteOwner = []int{0, 1}; pl.ReplicaFrom = 0b011 },
		"user out of range":      func(pl *core.Plan) { pl.OwnedUsers[0] = 0b1001 },
		"empty user set":         func(pl *core.Plan) { pl.OwnedUsers[2] = 0 },
		"assign out of range":    func(pl *core.Plan) { pl.Dec.Assign = []int{0, 1, 1, 7} },
		"trainer out of range":   func(pl *core.Plan) { pl.Trainer = 3 },
		"too many trainers":      func(pl *core.Plan) { pl.ReplicaOut = make([][]uint64, core.MaxTrainers+1) },
		"prefetch not owned":     func(pl *core.Plan) { pl.Prefetch = []uint64{3, 5} },
		"expiring not owned":     func(pl *core.Plan) { pl.Expiring = []uint64{28} },
		"replica of unowned row": func(pl *core.Plan) { pl.ReplicaOut[0] = []uint64{4} },
		"replica to self":        func(pl *core.Plan) { pl.ReplicaOut[1] = []uint64{3} },
		"replica-from mismatch":  func(pl *core.Plan) { pl.ReplicaFrom = 0b001 },
	}
	for name, mutate := range mutations {
		pl := testPlan()
		mutate(pl)
		if _, err := DecodePayload(EncodePayload(PlanMsg{Plan: pl})); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The example table is derived from the assignment by the encoder, so
	// corrupt it in the frame: the last example (index 2, dense and cat of
	// two elements each) starts 40 bytes before the end.
	valid := EncodePayload(PlanMsg{Plan: testPlan()})
	for name, idx := range map[string]uint32{"example index past the batch": 4, "example of another trainer": 3, "examples out of order": 1} {
		frame := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(frame[len(frame)-40:], idx)
		if _, err := DecodePayload(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A needed-next flag byte other than 0 or 1. The last flag precedes the
	// 8-byte replica-from set and the Decision subset: iteration (8),
	// assignment (4 + 4·4), batch index (8), size (4), example count (4)
	// and the two 40-byte examples.
	frame := append([]byte(nil), valid...)
	frame[len(frame)-124-8-1] = 2
	if _, err := DecodePayload(frame); err == nil {
		t.Error("needed-next flag 2 decoded without error")
	}
}

// retiredFrames is one frame of each retired encoding, laid out as a peer
// that still spoke it would have sent it: the per-parameter collective
// (tag 4: seq, element-type flag, float32 vector), the float16 replica
// push (tag 6: iteration, one row of one binary16 element), and a sync
// table whose reserved byte carries the old float16 flag (one partial of
// one binary16 element). Every one must decode to an error.
func retiredFrames() []struct {
	name  string
	frame []byte
} {
	coll := putF32s(append(putU64([]byte{4}, 1), 0), []float32{1.5})
	replica := putU32(putU64(putU32(putU64([]byte{6}, 1), 1), 4), 1)
	replica = binary.LittleEndian.AppendUint16(replica, 0x3C00) // 1.0
	sync := putU64(putU32([]byte{tagSyncBatch}, 1), 3)
	sync = putU64(putU32(putU32(append(sync, 1), 1), 1), 4)
	sync = binary.LittleEndian.AppendUint16(sync, 0x3C00)
	return []struct {
		name  string
		frame []byte
	}{
		{"retired coll tag 4", coll},
		{"retired f16 replica tag 6", replica},
		{"retired f16 sync table", sync},
	}
}

// FuzzDecodePayload feeds arbitrary bytes to the mesh payload decoder,
// seeded with one valid frame of every type EncodePayload writes and one
// of each retired encoding: decode must never panic or over-allocate, and
// every frame it accepts must be canonical — re-encoding the payload
// reproduces it byte for byte, and payloadSize (what the TCP endpoint sizes
// its pooled frame by) predicts its length.
func FuzzDecodePayload(f *testing.F) {
	for _, p := range []any{
		ReplicaMsg{Iter: 7, Rows: map[uint64][]float32{12: {1, 2.5, -3}, 99: {0, -0.125, 42}}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 4, Partials: map[uint64][]float32{2: {0.5, 0.25}, 6: {1, 2}}},
			{Iter: 3, Partials: map[uint64][]float32{8: {7, -2e-5}}},
			{Iter: 5, Partials: map[uint64][]float32{}},
		}},
		PlanMsg{Plan: testPlan()},
		FusedCollMsg{Seq: 43, Origin: 2, Segs: [][]float32{{1, 2, 3}, {-0.5}}, Loss: []float64{0.693147}},
		RawMsg("hello mesh"),
	} {
		f.Add(EncodePayload(p))
	}
	for _, r := range retiredFrames() {
		f.Add(r.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := DecodePayload(frame)
		if err != nil {
			return
		}
		if again := EncodePayload(p); !bytes.Equal(again, frame) {
			t.Fatalf("accepted %T frame re-encodes differently:\n in  %x\n out %x", p, frame, again)
		}
		if n := payloadSize(p); n != len(frame) {
			t.Fatalf("accepted %T frame of %d bytes, payloadSize says %d", p, len(frame), n)
		}
	})
}

// TestCodecDeterministic: map-typed fields encode in sorted key order, so
// the same payload always produces identical bytes.
func TestCodecDeterministic(t *testing.T) {
	msg := ReplicaMsg{Iter: 1, Rows: map[uint64][]float32{}}
	for id := uint64(0); id < 64; id++ {
		msg.Rows[id*7919%257] = []float32{float32(id)}
	}
	ref := EncodePayload(msg)
	for i := 0; i < 16; i++ {
		if got := EncodePayload(msg); !reflect.DeepEqual(ref, got) {
			t.Fatal("encoding of the same payload differed between calls")
		}
	}
}

// TestCodecRejectsCorrupt: truncated or trailing-garbage frames error
// instead of panicking or over-allocating, for every payload family
// including the segmented fused-collective and coalesced-sync encodings.
func TestCodecRejectsCorrupt(t *testing.T) {
	payloads := []any{
		ReplicaMsg{Iter: 1, Rows: map[uint64][]float32{5: {1, 2, 3}}},
		SyncBatchMsg{Flushes: []SyncMsg{
			{Iter: 2, Partials: map[uint64][]float32{3: {1, 2}, 9: {5, 6}}},
			{Iter: 1, Partials: map[uint64][]float32{7: {3, 4}}},
		}},
		FusedCollMsg{Seq: 9, Origin: 1, Segs: [][]float32{{1, 2}, {3}}, Loss: []float64{0.5}},
		PlanMsg{Plan: testPlan()},
	}
	for _, p := range payloads {
		enc := EncodePayload(p)
		for cut := 1; cut < len(enc); cut++ {
			if _, err := DecodePayload(enc[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d/%d bytes decoded without error", p, cut, len(enc))
			}
		}
		if _, err := DecodePayload(append(append([]byte(nil), enc...), 0xFF)); err == nil {
			t.Fatalf("%T: trailing garbage decoded without error", p)
		}
	}
	if _, err := DecodePayload([]byte{0x7F, 1, 2}); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	// Tag 2 was the standalone SyncMsg frame; flushes only travel coalesced.
	if _, err := DecodePayload([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("retired standalone sync tag decoded without error")
	}
	// A sync table that claims rows of width zero, or a width its bytes
	// cannot hold, is rejected before anything is allocated for it.
	flush := func(dim, n uint32, tail ...byte) []byte {
		b := []byte{tagSyncBatch}
		b = putU32(b, 1)
		b = putU64(b, 3)
		b = append(b, 0)
		b = putU32(b, dim)
		b = putU32(b, n)
		return append(b, tail...)
	}
	if _, err := DecodePayload(flush(0, 1, make([]byte, 8)...)); err == nil {
		t.Fatal("zero-width sync partials decoded without error")
	}
	if _, err := DecodePayload(flush(1<<31, 1, make([]byte, 64)...)); err == nil {
		t.Fatal("oversized sync partial width decoded without error")
	}
	if _, err := DecodePayload(nil); err == nil {
		t.Fatal("empty payload decoded without error")
	}
	// Well-framed values the encoder never writes: the decoder accepts
	// only frames that re-encode to themselves.
	syncRows := func(flag byte, dim uint32, ids ...uint64) []byte {
		b := []byte{tagSyncBatch}
		b = putU32(b, 1)
		b = putU64(b, 3)
		b = append(b, flag)
		b = putU32(b, dim)
		b = putU32(b, uint32(len(ids)))
		for _, id := range ids {
			b = putU64(b, id)
			b = putF32sRaw(b, make([]float32, dim))
		}
		return b
	}
	replicaRows := func(ids ...uint64) []byte {
		b := putU32(putU64([]byte{tagReplica}, 1), uint32(len(ids)))
		for _, id := range ids {
			b = putU64(b, id)
			b = putF32s(b, []float32{1})
		}
		return b
	}
	hostile := map[string][]byte{
		"sync flag byte 1":            syncRows(1, 1, 4),
		"sync flag byte 2":            syncRows(2, 1, 4),
		"sync ids descending":         syncRows(0, 1, 9, 4),
		"sync ids repeated":           syncRows(0, 1, 4, 4),
		"sync empty table of width 2": syncRows(0, 2),
		"replica ids descending":      replicaRows(9, 4),
	}
	for _, r := range retiredFrames() {
		hostile[r.name] = r.frame
	}
	for name, frame := range hostile {
		if _, err := DecodePayload(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestSyncEncodeRefusesRaggedOrBare: one flush carries one partial width,
// and neither a SyncMsg nor the retired CollMsg has a frame of its own —
// all are programming errors the encoder reports at the first Send.
func TestSyncEncodeRefusesRaggedOrBare(t *testing.T) {
	mustPanic := func(name string, p any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s encoded without panicking", name)
			}
		}()
		EncodePayload(p)
	}
	mustPanic("ragged flush", SyncBatchMsg{Flushes: []SyncMsg{
		{Iter: 1, Partials: map[uint64][]float32{1: {1, 2}, 2: {3}}},
	}})
	mustPanic("bare SyncMsg", SyncMsg{Iter: 1, Partials: map[uint64][]float32{1: {1}}})
	mustPanic("retired CollMsg", CollMsg{})
}
